(** The scatter-gather router: the {!Blas_server.Front} end in the
    ["router"] role on the front, pooled {!Blas_server.Client}
    connections to N shard groups on the back.

    Placement follows {!Shard_map}: a whole document lives on the shard
    that announced it in the startup HELLO sweep; a range-partitioned
    document is reassembled from its chunk names and answered by
    scatter-gather — per-chunk sub-queries, answers mapped through the
    chunk's uniform label shift and merged in document order
    ({!Merge}), byte-identical to a single-server run.

    Each shard group is a primary plus optional read replicas.

    - {e Reads} prefer the primary and fail over to replicas; with
      hedging enabled, a second attempt fires once the first has been
      outstanding longer than the shard's p99 (or a fixed delay) and
      the first reply wins — the loser drains in the background and
      retires its connection to the pool.
    - {e Writes} go to the primary through UPDATEX, which surfaces the
      §11 precise invalidation record; the router then re-applies the
      same edit on every replica (deterministic, so replicas converge),
      cross-checks each replica's own invalidation against the
      primary's (divergence alarm), and — when a replica fails the
      re-apply — pushes the primary's invalidation via INVAL so the
      replica at least stops serving stale cached answers.  The whole
      primary-then-replicas span is serialized per document by a
      router-side lock: the primary's write lock alone orders only the
      primary applies, and without the router lock two workers could
      fan the same two edits out to the replicas in the opposite
      order and leave them silently diverged (reordered edits can
      produce identical per-edit invalidation records, so the
      cross-check cannot detect it).
    - Every endpoint carries a circuit breaker (consecutive transport
      failures open it; after a cooldown one half-open probe may pass).
      Admission is shard-aware: a request whose required shard has no
      admissible endpoint answers [BUSY] immediately.

    Traced requests thread their id through the fan-out: each shard hop
    runs under [TRACE BG <id>-s<k>] (record-only on the shard, so the
    merged answer frames stay byte-identical) and the router's own
    envelope shows one span per hop. *)

let log_src = Logs.Src.create "blas_router" ~doc:"BLAS cluster router"

module Log = (val Logs.src_log log_src)
module Client = Blas_server.Client
module Proto = Blas_server.Proto
module Front = Blas_server.Front
module Metrics = Blas_obs.Metrics

let now_ns = Blas_obs.Clock.now_ns

type endpoint = { host : string; port : int }

let endpoint_of_string s =
  let host, port = Client.parse_endpoint s in
  { host; port }

let endpoint_to_string e = Printf.sprintf "%s:%d" e.host e.port

type group = { primary : endpoint; replicas : endpoint list }

(** [groups_of_endpoints ~replicas eps] — cut a flat endpoint list into
    shard groups of [1 + replicas] endpoints each (primary first).
    @raise Invalid_argument when the list does not divide evenly. *)
let groups_of_endpoints ~replicas eps =
  if replicas < 0 then invalid_arg "Router.groups_of_endpoints: replicas < 0";
  let per = 1 + replicas in
  let n = List.length eps in
  if n = 0 || n mod per <> 0 then
    invalid_arg
      (Printf.sprintf
         "Router.groups_of_endpoints: %d endpoint(s) do not divide into \
          groups of %d"
         n per);
  List.init (n / per) (fun k ->
      match List.filteri (fun i _ -> i / per = k) eps with
      | primary :: replicas -> { primary; replicas }
      | [] -> assert false)

type hedge_policy =
  | Hedge_off
  | Hedge_auto  (** delay = the target shard's observed p99 latency *)
  | Hedge_ms of float  (** fixed delay, milliseconds *)

type config = {
  name : string;  (** identity announced in the HELLO handshake *)
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  groups : group list;  (** one per shard, primary first *)
  max_inflight : int;
  queue_depth : int;
  default_deadline_ms : int option;
  hedge : hedge_policy;
  hedge_min_samples : int;
      (** [Hedge_auto] stays off until a shard has this many observed
          queries (a p99 of three samples is noise) *)
  breaker_failures : int;  (** consecutive transport failures to open *)
  breaker_cooldown_ms : float;  (** open time before a half-open probe *)
  metrics_port : int option;  (** plain-HTTP [GET /metrics] listener *)
  trace_ring : int;
}

let default_config =
  {
    name = "router";
    host = "127.0.0.1";
    port = 4104;
    groups = [];
    max_inflight = 8;
    queue_depth = 32;
    default_deadline_ms = None;
    hedge = Hedge_auto;
    hedge_min_samples = 32;
    breaker_failures = 3;
    breaker_cooldown_ms = 1000.;
    metrics_port = None;
    trace_ring = 64;
  }

(* ------------------------------------------------------------------ *)
(* Endpoint state: connection pool, breaker, latency                  *)

type ep = {
  e_endpoint : endpoint;
  e_shard : int;
  e_role : string;  (** ["primary"] or ["replica"] *)
  e_lock : Mutex.t;
  mutable e_idle : Client.t list;  (** pooled idle connections *)
  mutable e_failures : int;  (** consecutive transport failures *)
  mutable e_open_since : int64 option;  (** breaker open stamp *)
  e_latency : Metrics.histogram;  (** successful QUERY round trips, ns *)
}

type route =
  | Single of int  (** the shard owning the whole document *)
  | Chunks of (string * int) list
      (** a range partition: (chunk doc, label offset) in chunk order *)

type t = {
  config : config;
  front : Front.t;
  registry : Metrics.t;
  groups : ep array array;  (** [groups.(k).(0)] is shard [k]'s primary *)
  table : (string, route) Hashtbl.t;
  doc_locks : (string, Mutex.t) Hashtbl.t;
      (** per-document update locks, created on demand (see
          {!doc_update_lock}) *)
  doc_locks_lock : Mutex.t;
  m_hedge_fired : Metrics.counter;
  m_hedge_won : Metrics.counter;
  m_repl_mismatch : Metrics.counter;
  m_repl_pushed : Metrics.counter;
  m_repl_lag : Metrics.gauge;
}

let port t = Front.port t.front

let metrics_port t = Front.metrics_port t.front

let registry t = t.registry

let shards t = Array.length t.groups

(* ------------------------------------------------------------------ *)
(* Breaker and pool                                                   *)

let breaker_state t ep =
  Mutex.lock ep.e_lock;
  let st =
    match ep.e_open_since with
    | None -> `Closed
    | Some since ->
      if
        Blas_obs.Clock.elapsed_ns since
        >= Int64.of_float (t.config.breaker_cooldown_ms *. 1e6)
      then `Half_open
      else `Open
  in
  Mutex.unlock ep.e_lock;
  st

(* Half-open admits the probe; only a hard-open breaker rejects. *)
let admits t ep = breaker_state t ep <> `Open

let on_success ep =
  Mutex.lock ep.e_lock;
  ep.e_failures <- 0;
  ep.e_open_since <- None;
  Mutex.unlock ep.e_lock

let on_failure t ep =
  Mutex.lock ep.e_lock;
  ep.e_failures <- ep.e_failures + 1;
  if ep.e_failures >= t.config.breaker_failures then begin
    if ep.e_open_since = None then
      Log.warn (fun m ->
          m "breaker open: shard %d %s %s (%d consecutive failures)"
            ep.e_shard ep.e_role
            (endpoint_to_string ep.e_endpoint)
            ep.e_failures);
    ep.e_open_since <- Some (now_ns ())
  end;
  Mutex.unlock ep.e_lock

let take_conn ep =
  Mutex.lock ep.e_lock;
  match ep.e_idle with
  | c :: rest ->
    ep.e_idle <- rest;
    Mutex.unlock ep.e_lock;
    c
  | [] ->
    Mutex.unlock ep.e_lock;
    Client.connect ~host:ep.e_endpoint.host ep.e_endpoint.port

let give_conn ep c =
  Mutex.lock ep.e_lock;
  if List.length ep.e_idle < 8 then begin
    ep.e_idle <- c :: ep.e_idle;
    Mutex.unlock ep.e_lock
  end
  else begin
    Mutex.unlock ep.e_lock;
    Client.close c
  end

let drain_idle ep =
  Mutex.lock ep.e_lock;
  let idle = ep.e_idle in
  ep.e_idle <- [];
  Mutex.unlock ep.e_lock;
  List.iter Client.close idle

(** A back-end exchange outcome: [Done] is a protocol-level reply (even
    ERR / BUSY / TIMEOUT — those are final answers, identical on any
    replica); [Failed] is a transport failure, which feeds the breaker
    and is eligible for failover. *)
type 'a outcome = Done of 'a | Failed of string

let attempt t ep f =
  match
    let c = take_conn ep in
    match f c with
    | r ->
      give_conn ep c;
      r
    | exception e ->
      Client.close c;
      raise e
  with
  | r ->
    on_success ep;
    Done r
  | exception e ->
    on_failure t ep;
    Failed (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Hedged / failover execution                                        *)

let hedge_delay_s t ep =
  match t.config.hedge with
  | Hedge_off -> None
  | Hedge_ms ms -> Some (ms /. 1000.)
  | Hedge_auto ->
    if Metrics.hist_count ep.e_latency < t.config.hedge_min_samples then None
    else
      let p99_ns = Metrics.percentile ep.e_latency 99. in
      if Float.is_nan p99_ns then None
      else Some (Float.max 0.0005 (Float.min 1.0 (p99_ns /. 1e9)))

(* [race t ~delay ~first ~second] — run [first]; start [second] when
   [first] fails (failover) or has been outstanding for [delay]
   (a hedge, counted).  The first [Done] wins; when both fail, the
   first failure is reported.  The losing attempt keeps running on its
   own thread and retires its connection when its reply lands.

   [soft r] marks a reply that is well-formed but worth failing over
   anyway (a BUSY from an overloaded endpoint): it triggers the second
   attempt like a failure does, beats a transport failure in the final
   pick, but never wins over a real answer. *)
let race ?(soft = fun _ -> false) t ~delay ~first ~second =
  match second with
  | None -> first ()
  | Some second ->
    let mu = Mutex.create () and cv = Condition.create () in
    let results = ref [] in
    let launched = ref 1 and timer_fired = ref false and hedged = ref false in
    let post i r =
      Mutex.lock mu;
      results := (i, r) :: !results;
      Condition.broadcast cv;
      Mutex.unlock mu
    in
    ignore (Thread.create (fun () -> post 0 (first ())) ());
    (match delay with
    | Some d ->
      ignore
        (Thread.create
           (fun () ->
             Unix.sleepf d;
             Mutex.lock mu;
             timer_fired := true;
             Condition.broadcast cv;
             Mutex.unlock mu)
           ())
    | None -> ());
    let launch_second ~hedge =
      launched := 2;
      if hedge then begin
        hedged := true;
        Metrics.incr t.m_hedge_fired
      end;
      ignore (Thread.create (fun () -> post 1 (second ())) ())
    in
    Mutex.lock mu;
    let result = ref None in
    while !result = None do
      match
        List.find_opt
          (fun (_, r) -> match r with Done v -> not (soft v) | _ -> false)
          !results
      with
      | Some won -> result := Some won
      | None ->
        if List.length !results >= !launched then
          if !launched = 2 then
            (* No real answer: prefer a soft reply (BUSY) over a
               transport failure, else report the earliest failure. *)
            result :=
              Some
                (match
                   List.find_opt
                     (fun (_, r) ->
                       match r with Done _ -> true | _ -> false)
                     !results
                 with
                | Some r -> r
                | None -> List.nth !results (List.length !results - 1))
          else launch_second ~hedge:false
        else if !timer_fired && !launched = 1 && delay <> None then
          launch_second ~hedge:true
        else Condition.wait cv mu
    done;
    let i, r = Option.get !result in
    Mutex.unlock mu;
    (match r with
    | Done _ when !hedged && i = 1 -> Metrics.incr t.m_hedge_won
    | _ -> ());
    r

(* Remaining budget of an absolute deadline, as the DEADLINE header
   milliseconds for the shard hop. *)
let remaining_ms deadline_ns =
  Option.map
    (fun d ->
      max 1 (Int64.to_int (Int64.div (Int64.sub d (now_ns ())) 1_000_000L)))
    deadline_ns

(** One read against shard [shard]: primary-first among admissible
    endpoints, replica failover on transport failure or BUSY, and an
    optional hedged second attempt.  [Done Busy] when the whole shard
    is breaker-open. *)
let shard_query t ~shard ?deadline_ns ?trace_bg ~doc ~translator ~engine xpath
    =
  let targets =
    Array.to_list t.groups.(shard) |> List.filter (fun ep -> admits t ep)
  in
  match targets with
  | [] -> Done Proto.Busy
  | first_ep :: rest ->
    let deadline_ms = remaining_ms deadline_ns in
    let run ep () =
      let t0 = now_ns () in
      match
        attempt t ep (fun c ->
            Client.query ?deadline_ms ?trace_bg c ~doc ~translator ~engine
              xpath)
      with
      | Done r ->
        Metrics.observe ep.e_latency
          (Int64.to_float (Blas_obs.Clock.elapsed_ns t0));
        Done r
      | Failed e -> Failed e
    in
    let delay = hedge_delay_s t first_ep in
    let second =
      match rest with
      | ep :: _ -> Some (run ep)
      | [] ->
        (* No replica: a hedge can still race a second connection to
           the same endpoint (helps when one connection is stuck). *)
        if delay <> None then Some (run first_ep) else None
    in
    race t
      ~soft:(function Proto.Busy -> true | _ -> false)
      ~delay ~first:(run first_ep) ~second

(* ------------------------------------------------------------------ *)
(* Routing                                                            *)

let route t doc = Hashtbl.find_opt t.table doc

(* The shard that owns a (possibly chunk-) document, per the table. *)
let owner t doc =
  match route t doc with Some (Single k) -> Some k | _ -> None

(** Shard-aware admission: [Some Busy] when a required shard has no
    admissible endpoint — checked before the job is queued, so an
    open-breaker shard rejects instantly instead of eating a worker. *)
let admission_reject t ~write doc =
  let shard_ok k =
    if write then admits t t.groups.(k).(0)
    else Array.exists (fun ep -> admits t ep) t.groups.(k)
  in
  match route t doc with
  | None -> None (* unknown doc answers ERR from the job body *)
  | Some (Single k) -> if shard_ok k then None else Some Proto.Busy
  | Some (Chunks chunks) ->
    if
      List.for_all
        (fun (cdoc, _) ->
          match owner t cdoc with Some k -> shard_ok k | None -> false)
        chunks
    then None
    else Some Proto.Busy

(* ------------------------------------------------------------------ *)
(* Request bodies                                                     *)

type subresult = {
  sr_shard : int;
  sr_doc : string;
  sr_offset : int;
  sr_reply : Proto.reply outcome;
  sr_start_ns : int64;
  sr_duration_ns : int64;
}

(* Scatter one sub-query per chunk (each hop hedged independently),
   join, and record one span per hop on the caller's tracer. *)
let scatter t ~tracer ~trace_id ~deadline_ns ~translator ~engine ~xpath chunks
    =
  let sub i (cdoc, offset) =
    let shard = match owner t cdoc with Some k -> k | None -> -1 in
    let trace_bg =
      if trace_id = "" then None
      else Some (Printf.sprintf "%s-s%d" trace_id i)
    in
    let t0 = now_ns () in
    let reply =
      if shard < 0 then Failed (Printf.sprintf "chunk %S has no shard" cdoc)
      else
        shard_query t ~shard ?deadline_ns ?trace_bg ~doc:cdoc ~translator
          ~engine xpath
    in
    {
      sr_shard = shard;
      sr_doc = cdoc;
      sr_offset = offset;
      sr_reply = reply;
      sr_start_ns = t0;
      sr_duration_ns = Blas_obs.Clock.elapsed_ns t0;
    }
  in
  let results =
    match chunks with
    | [ one ] -> [| sub 0 one |] (* no fan-out, no extra thread *)
    | _ ->
      let cells = Array.of_list (List.mapi (fun i c -> (i, c)) chunks) in
      let out = Array.map (fun (i, c) -> (i, c, ref None)) cells in
      let threads =
        Array.map
          (fun (i, c, cell) -> Thread.create (fun () -> cell := Some (sub i c)) ())
          out
      in
      Array.iter Thread.join threads;
      Array.map (fun (_, _, cell) -> Option.get !cell) out
  in
  Array.iter
    (fun sr ->
      let outcome =
        match sr.sr_reply with
        | Done (Proto.Ok_payload _) -> "ok"
        | Done r -> String.lowercase_ascii (Proto.reply_to_string r)
        | Failed e -> "failed: " ^ e
      in
      Blas_obs.Trace.record tracer
        ~attrs:[ ("shard", string_of_int sr.sr_shard); ("doc", sr.sr_doc);
                 ("outcome", outcome) ]
        ~name:(Printf.sprintf "fanout-s%d" sr.sr_shard)
        ~start_ns:sr.sr_start_ns ~duration_ns:sr.sr_duration_ns ())
    results;
  results

let query_job t ~tracer ~trace_id ~deadline_ns ~doc ~translator ~engine xpath
    =
  match route t doc with
  | None -> Proto.Err (Printf.sprintf "unknown document %S" doc)
  | Some (Single _) -> (
    (* Whole document: a single (possibly hedged) hop forwarding the
       shard's payload bytes untouched. *)
    match
      scatter t ~tracer ~trace_id ~deadline_ns ~translator ~engine ~xpath
        [ (doc, 0) ]
    with
    | [| { sr_reply = Done r; _ } |] -> r
    | [| { sr_reply = Failed e; sr_shard; _ } |] ->
      Proto.Err (Printf.sprintf "shard %d unreachable: %s" sr_shard e)
    | _ -> assert false)
  | Some (Chunks chunks) -> (
    let results =
      scatter t ~tracer ~trace_id ~deadline_ns ~translator ~engine ~xpath
        chunks
    in
    (* All chunks must answer: a partial union would silently drop
       answers.  Failure priority: transport error > TIMEOUT > BUSY >
       ERR (any ERR is the same semantic error on every chunk). *)
    let failed =
      Array.fold_left
        (fun acc sr ->
          match (acc, sr.sr_reply) with
          | Some _, _ -> acc
          | None, Failed e ->
            Some
              (Proto.Err
                 (Printf.sprintf "shard %d unreachable: %s" sr.sr_shard e))
          | None, _ -> None)
        None results
    in
    let first_non_ok pick =
      Array.fold_left
        (fun acc sr ->
          match (acc, sr.sr_reply) with
          | Some _, _ -> acc
          | None, Done r when pick r -> Some r
          | None, _ -> None)
        None results
    in
    match failed with
    | Some e -> e
    | None -> (
      match
        ( first_non_ok (function Proto.Timeout -> true | _ -> false),
          first_non_ok (function Proto.Busy -> true | _ -> false),
          first_non_ok (function Proto.Err _ -> true | _ -> false) )
      with
      | Some r, _, _ | None, Some r, _ | None, None, Some r -> r
      | None, None, None -> (
        let parsed =
          Array.map
            (fun sr ->
              match sr.sr_reply with
              | Done (Proto.Ok_payload p) ->
                Option.map (fun starts -> (sr.sr_offset, starts))
                  (Merge.parse_answers p)
              | _ -> None)
            results
        in
        if Array.exists Option.is_none parsed then
          Proto.Err "unmergeable shard reply (not an answer payload)"
        else
          Proto.Ok_payload
            (Merge.render_answers
               (Merge.merge
                  (Array.to_list parsed |> List.map Option.get))))))

(* Replica fan-out of one applied edit: deterministic re-apply via
   UPDATEX, invalidation cross-check, INVAL push as the stale-cache
   stopgap when the re-apply fails.  Returns the ack stamp on
   success. *)
let fan_replica t ~doc ~edit ~primary_inv rep =
  let mismatch a b =
    match (a, b) with
    | Some a, Some b ->
      Proto.invalidation_to_string a <> Proto.invalidation_to_string b
    | None, None -> false
    | _ -> true
  in
  match attempt t rep (fun c -> Client.updatex c ~doc edit) with
  | Done (Proto.Ok_payload _, rinv) ->
    if mismatch primary_inv rinv then begin
      Metrics.incr t.m_repl_mismatch;
      Log.warn (fun m ->
          m "replica %s diverged on %s (invalidation mismatch)"
            (endpoint_to_string rep.e_endpoint)
            doc)
    end;
    Some (now_ns ())
  | Done _ | Failed _ ->
    (match primary_inv with
    | Some inv -> (
      match attempt t rep (fun c -> Client.inval c ~doc inv) with
      | Done _ -> Metrics.incr t.m_repl_pushed
      | Failed _ -> ())
    | None -> ());
    None

(* The per-document update lock.  Held from before the primary UPDATEX
   until the replica fan-out completes, so that the order in which
   edits reach the replicas equals the order in which the primary
   applied them — acquisition order fixes both.  Locks are created on
   demand and never reclaimed: the table is bounded by the number of
   routed document names. *)
let doc_update_lock t doc =
  Mutex.lock t.doc_locks_lock;
  let m =
    match Hashtbl.find_opt t.doc_locks doc with
    | Some m -> m
    | None ->
      let m = Mutex.create () in
      Hashtbl.add t.doc_locks doc m;
      m
  in
  Mutex.unlock t.doc_locks_lock;
  m

let update_job t ~want_invalidation ~deadline_ns ~doc edit =
  match route t doc with
  | None -> Proto.Err (Printf.sprintf "unknown document %S" doc)
  | Some (Chunks _) ->
    Proto.Err
      (Printf.sprintf
         "%S is range-partitioned; updates must target one of its chunks" doc)
  | Some (Single shard) -> (
    let group = t.groups.(shard) in
    let primary = group.(0) in
    if not (admits t primary) then Proto.Busy
    else
      let dlock = doc_update_lock t doc in
      Mutex.lock dlock;
      Fun.protect ~finally:(fun () -> Mutex.unlock dlock)
      @@ fun () ->
      let deadline_ms = remaining_ms deadline_ns in
      match
        attempt t primary (fun c -> Client.updatex ?deadline_ms c ~doc edit)
      with
      | Failed e ->
        Proto.Err (Printf.sprintf "shard %d primary unreachable: %s" shard e)
      | Done (reply, inv) -> (
        match reply with
        | Proto.Ok_payload payload ->
          let acked_ns = now_ns () in
          let replicas = Array.sub group 1 (Array.length group - 1) in
          if Array.length replicas > 0 then begin
            let acks = Array.map (fun _ -> ref None) replicas in
            let threads =
              Array.mapi
                (fun i rep ->
                  Thread.create
                    (fun () ->
                      acks.(i) :=
                        fan_replica t ~doc ~edit ~primary_inv:inv rep)
                    ())
                replicas
            in
            Array.iter Thread.join threads;
            let lag =
              Array.fold_left
                (fun acc ack ->
                  match !ack with
                  | Some stamp ->
                    Float.max acc
                      (Int64.to_float (Int64.sub stamp acked_ns))
                  | None -> acc)
                0. acks
            in
            Metrics.set t.m_repl_lag lag
          end;
          if want_invalidation then
            match inv with
            | Some inv ->
              Proto.Ok_payload
                (Proto.invalidation_to_string inv ^ "\n" ^ payload)
            | None -> Proto.Ok_payload payload
          else Proto.Ok_payload payload
        | other -> other))

(* INVAL through the router: push to every endpoint of the owning
   shard.  (A chunk name routes like any other document.) *)
let inval_job t ~doc payload =
  match route t doc with
  | None -> Proto.Err (Printf.sprintf "unknown document %S" doc)
  | Some (Chunks _) ->
    Proto.Err
      (Printf.sprintf "%S is range-partitioned; INVAL must target a chunk" doc)
  | Some (Single shard) ->
    let replies =
      Array.map
        (fun ep ->
          attempt t ep (fun c ->
              Client.raw c
                (Proto.command_to_line (Proto.Inval { doc; payload }))))
        t.groups.(shard)
    in
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | (Proto.Err _ | Proto.Busy | Proto.Timeout), _ -> acc
        | _, Done ((Proto.Err _ | Proto.Busy | Proto.Timeout) as bad) -> bad
        | _, Done _ -> acc
        | _, Failed e -> Proto.Err ("endpoint unreachable: " ^ e))
      (Proto.Ok_payload "invalidated")
      replies

(* ------------------------------------------------------------------ *)
(* STATS / METRICS                                                    *)

(* Scrape-time mirroring of breaker state into per-endpoint gauges
   (0 closed, 0.5 half-open, 1 open). *)
let refresh_gauges t =
  Array.iter
    (Array.iter (fun ep ->
         let v =
           match breaker_state t ep with
           | `Closed -> 0.
           | `Half_open -> 0.5
           | `Open -> 1.
         in
         Metrics.set
           (Metrics.gauge t.registry
              ~labels:
                [
                  ("shard", string_of_int ep.e_shard);
                  ("endpoint", endpoint_to_string ep.e_endpoint);
                  ("role", ep.e_role);
                ]
              "router.breaker.open")
           v))
    t.groups

let metrics_payload t fmt = Front.metrics_payload t.front fmt

let ep_json t ep =
  let pct p =
    let v = Metrics.percentile ep.e_latency p in
    if Float.is_nan v then Blas_obs.Json.Null else Blas_obs.Json.Float v
  in
  Mutex.lock ep.e_lock;
  let idle = List.length ep.e_idle and failures = ep.e_failures in
  Mutex.unlock ep.e_lock;
  Blas_obs.Json.Obj
    [
      ("endpoint", Blas_obs.Json.Str (endpoint_to_string ep.e_endpoint));
      ("role", Blas_obs.Json.Str ep.e_role);
      ( "breaker",
        Blas_obs.Json.Str
          (match breaker_state t ep with
          | `Closed -> "closed"
          | `Half_open -> "half-open"
          | `Open -> "open") );
      ("consecutive_failures", Blas_obs.Json.Int failures);
      ("idle_connections", Blas_obs.Json.Int idle);
      ("queries", Blas_obs.Json.Int (Metrics.hist_count ep.e_latency));
      ("latency_p50_ns", pct 50.);
      ("latency_p99_ns", pct 99.);
    ]

let docs_json t =
  let entries =
    Hashtbl.fold
      (fun doc r acc ->
        ( doc,
          match r with
          | Single k -> Blas_obs.Json.Str (Printf.sprintf "shard %d" k)
          | Chunks chunks ->
            Blas_obs.Json.List
              (List.map (fun (c, _) -> Blas_obs.Json.Str c) chunks) )
        :: acc)
      t.table []
  in
  Blas_obs.Json.Obj (List.sort (fun (a, _) (b, _) -> compare a b) entries)

let stats_payload t =
  refresh_gauges t;
  let st = Front.status t.front in
  Blas_obs.Json.to_string_pretty
    (Blas_obs.Json.Obj
       [
         ( "router",
           Blas_obs.Json.Obj
             [
               ("name", Blas_obs.Json.Str t.config.name);
               ("phase", Blas_obs.Json.Str st.Front.phase);
               ("uptime_ns", Blas_obs.Json.Int st.Front.uptime_ns);
               ("shards", Blas_obs.Json.Int (shards t));
               ("inflight", Blas_obs.Json.Int st.Front.inflight);
               ("queued", Blas_obs.Json.Int st.Front.queued);
               ( "hedge_fired",
                 Blas_obs.Json.Int (Metrics.counter_value t.m_hedge_fired) );
               ( "hedge_won",
                 Blas_obs.Json.Int (Metrics.counter_value t.m_hedge_won) );
               ( "replica_mismatches",
                 Blas_obs.Json.Int (Metrics.counter_value t.m_repl_mismatch)
               );
               ( "replica_pushed_invalidations",
                 Blas_obs.Json.Int (Metrics.counter_value t.m_repl_pushed) );
             ] );
         ( "shards_detail",
           Blas_obs.Json.List
             (Array.to_list
                (Array.mapi
                   (fun k group ->
                     Blas_obs.Json.Obj
                       [
                         ("shard", Blas_obs.Json.Int k);
                         ( "endpoints",
                           Blas_obs.Json.List
                             (Array.to_list (Array.map (ep_json t) group)) );
                       ])
                   t.groups)) );
         ("docs", docs_json t);
         ("metrics", Metrics.to_json t.registry);
       ])

(* ------------------------------------------------------------------ *)
(* The router role                                                    *)

let list_payload t =
  Hashtbl.fold (fun doc _ acc -> doc :: acc) t.table []
  |> List.sort compare |> String.concat "\n"

(* The commands the front end hands over.  Shard-aware admission rejects
   before queuing, so an open-breaker shard answers BUSY instantly
   instead of eating a worker. *)
let request t cmd =
  match cmd with
  | Proto.Query { doc; translator; engine; xpath } -> (
    match admission_reject t ~write:false doc with
    | Some busy -> Front.Reject busy
    | None ->
      Front.Admit
        {
          Front.verb = "query";
          detail =
            [
              ("doc", doc);
              ("query", xpath);
              ("translator", Proto.translator_to_string translator);
              ("engine", Proto.engine_to_string engine);
            ];
          run =
            (fun ctx ->
              query_job t ~tracer:ctx.Front.tracer ~trace_id:ctx.Front.trace_id
                ~deadline_ns:ctx.Front.deadline_ns ~doc ~translator ~engine
                xpath);
        })
  | Proto.Update { doc; edit } | Proto.Updatex { doc; edit } -> (
    let want_invalidation =
      match cmd with Proto.Updatex _ -> true | _ -> false
    in
    match admission_reject t ~write:true doc with
    | Some busy -> Front.Reject busy
    | None ->
      Front.Admit
        {
          Front.verb = "update";
          detail = [ ("doc", doc) ];
          run =
            (fun ctx ->
              update_job t ~want_invalidation ~deadline_ns:ctx.Front.deadline_ns
                ~doc edit);
        })
  | Proto.Inval { doc; payload } ->
    Front.Admit
      {
        Front.verb = "inval";
        detail = [ ("doc", doc) ];
        run = (fun _ -> inval_job t ~doc payload);
      }
  | Proto.Stats -> Front.Answer (Proto.Ok_payload (stats_payload t))
  | Proto.Stats_timeseries ->
    Front.Answer (Proto.Err "STATS TIMESERIES is not kept on the router")
  | Proto.Sleep _ -> Front.Answer (Proto.Err "SLEEP is not routed")
  | cmd -> Front.Answer (Proto.Err ("not routed: " ^ Proto.command_to_line cmd))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

(* The startup HELLO sweep: ask every primary what it hosts, pin each
   document to its announcing shard, and reassemble range partitions
   from chunk names.  Replicas are swept too — a replica missing one of
   its primary's documents is a deployment bug worth a warning. *)
let discover ~name (eps : ep array array) =
  let table = Hashtbl.create 32 in
  let all_names = ref [] in
  Array.iteri
    (fun k group ->
      let hello ep =
        Client.with_client ~host:ep.e_endpoint.host ep.e_endpoint.port
          (fun c -> Client.hello c (Printf.sprintf "router:%s" name))
      in
      let _, docs = hello group.(0) in
      List.iter
        (fun doc ->
          match Hashtbl.find_opt table doc with
          | Some (Single other) ->
            invalid_arg
              (Printf.sprintf
                 "Router.start: document %S hosted by shard %d and shard %d"
                 doc other k)
          | _ ->
            Hashtbl.replace table doc (Single k);
            all_names := doc :: !all_names)
        docs;
      Array.iteri
        (fun i ep ->
          if i > 0 then
            match hello ep with
            | _, rdocs ->
              List.iter
                (fun doc ->
                  if not (List.mem doc rdocs) then
                    Log.warn (fun m ->
                        m "replica %s of shard %d misses document %S"
                          (endpoint_to_string ep.e_endpoint)
                          k doc))
                docs
            | exception e ->
              Log.warn (fun m ->
                  m "replica %s of shard %d unreachable at startup: %s"
                    (endpoint_to_string ep.e_endpoint)
                    k (Printexc.to_string e)))
        group)
    eps;
  let partitions, _plain = Shard_map.assemble !all_names in
  List.iter
    (fun (p : Shard_map.partition) ->
      Hashtbl.replace table p.Shard_map.pt_doc
        (Chunks
           (List.map
              (fun (c : Shard_map.chunk) ->
                (c.Shard_map.ck_doc, c.Shard_map.ck_offset))
              p.Shard_map.pt_chunks)))
    partitions;
  table

(** [start ?registry config] — handshake with every shard, build the
    routing table, bind the front socket, spawn workers, return.
    @raise Invalid_argument on an empty or inconsistent shard list.
    @raise Unix.Unix_error when a primary is unreachable or the address
    cannot be bound. *)
let start ?(registry = Metrics.create ()) (config : config) =
  if config.groups = [] then invalid_arg "Router.start: no shard groups";
  let eps =
    Array.of_list
      (List.mapi
         (fun k (g : group) ->
           Array.of_list
             (List.mapi
                (fun i e ->
                  {
                    e_endpoint = e;
                    e_shard = k;
                    e_role = (if i = 0 then "primary" else "replica");
                    e_lock = Mutex.create ();
                    e_idle = [];
                    e_failures = 0;
                    e_open_since = None;
                    e_latency =
                      Metrics.histogram registry
                        ~labels:
                          [
                            ("shard", string_of_int k);
                            ("endpoint", endpoint_to_string e);
                            ("role", (if i = 0 then "primary" else "replica"));
                          ]
                        "router.shard.latency_ns";
                  })
                (g.primary :: g.replicas)))
         config.groups)
  in
  let table = discover ~name:config.name eps in
  let front =
    Front.create ~role:"router" ~registry
      {
        Front.host = config.host;
        port = config.port;
        max_inflight = config.max_inflight;
        queue_depth = config.queue_depth;
        default_deadline_ms = config.default_deadline_ms;
        metrics_port = config.metrics_port;
        trace_ring = config.trace_ring;
      }
  in
  let t =
    {
      config;
      front;
      registry;
      groups = eps;
      table;
      doc_locks = Hashtbl.create 32;
      doc_locks_lock = Mutex.create ();
      m_hedge_fired = Metrics.counter registry "router.hedge.fired";
      m_hedge_won = Metrics.counter registry "router.hedge.won";
      m_repl_mismatch = Metrics.counter registry "router.replica.mismatch";
      m_repl_pushed =
        Metrics.counter registry "router.replica.pushed_invalidations";
      m_repl_lag = Metrics.gauge registry "router.replica.lag_ns";
    }
  in
  Front.serve front
    {
      Front.name = config.name;
      list = (fun () -> list_payload t);
      refresh = (fun () -> refresh_gauges t);
      request = request t;
      drain = (fun () -> Array.iter (Array.iter drain_idle) t.groups);
    };
  Log.info (fun m ->
      m "routing %d document(s) over %d shard(s) on %s:%d"
        (Hashtbl.length t.table) (shards t) config.host (port t));
  t

let request_shutdown t = Front.request_shutdown t.front

let wait t = Front.wait t.front

let stop t = Front.stop t.front

let with_router ?registry config f =
  let t = start ?registry config in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
