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
      the first real reply wins — the loser's connection is closed.
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

    Every fan-out — a single read, the chunks of a scattered read, the
    replica re-applies, the INVAL pushes — is one {!exchange} on the
    worker thread that runs the request: it sends each job's request,
    then waits on the outstanding sockets with [Unix.select], the
    nearest hedge deadline as the timeout.  The router starts no thread
    of its own.

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
  e_latency : Metrics.histogram;
      (** QUERY round trips, ns (a closed hedge loser: its time so far) *)
}

type route =
  | Single of int  (** the shard owning the whole document *)
  | Chunks of (string * int * int) list
      (** a range partition: (chunk doc, label offset, owning shard) in
          chunk order *)

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

(* ------------------------------------------------------------------ *)
(* The exchange: every fan-out waits on its sockets in one loop       *)

(** A back-end exchange outcome: [Done] is a protocol-level reply (even
    ERR / BUSY / TIMEOUT — those are final answers, identical on any
    replica); [Failed] is a transport failure, which feeds the breaker
    and is eligible for failover. *)
type outcome = Done of Proto.reply | Failed of string

(** One job of an {!exchange}: a command, the endpoints to try it on in
    order, and the hedge delay after which the next endpoint starts
    while the current leg is still out. *)
type job = {
  j_cmd : Proto.command;
  j_headers : Proto.command list;
  j_deadline_ns : int64 option;  (** sent as the remaining DEADLINE *)
  j_eps : ep list;
  j_delay : float option;  (** seconds *)
}

(* A job for one endpoint with no hedge: UPDATEX, INVAL. *)
let single ?deadline_ns cmd ep =
  {
    j_cmd = cmd;
    j_headers = [];
    j_deadline_ns = deadline_ns;
    j_eps = [ ep ];
    j_delay = None;
  }

(** A settled job: its outcome, when its first leg started, and how long
    it took to settle. *)
type settled = { outcome : outcome; start_ns : int64; duration_ns : int64 }

type leg = {
  l_job : int;
  l_ep : ep;
  l_conn : Client.t;
  l_start_ns : int64;
  l_hedge : bool;  (** started by the hedge timer *)
}

(* Remaining budget of an absolute deadline, as the DEADLINE header
   milliseconds for the shard hop. *)
let remaining_ms deadline_ns =
  Option.map
    (fun d ->
      max 1 (Int64.to_int (Int64.div (Int64.sub d (now_ns ())) 1_000_000L)))
    deadline_ns

(* [exchange t jobs] — run every job on the calling thread: send each
   to its first endpoint, then wait with [Unix.select] on the legs still
   out, the nearest hedge deadline as the timeout.  A transport failure,
   a BUSY reply or an expired hedge delay (only this last counts
   [router.hedge.fired]) starts the job's next endpoint.  The first real
   answer settles the job; its other legs are closed, never pooled, so
   a late reply cannot reach a later request.  With no real answer the
   first BUSY (a soft reply: it fails over like a transport failure but
   beats one in the final pick), else the first failure, settles it; a
   job with no endpoint at all answers BUSY.

   [select] refuses a descriptor >= FD_SETSIZE with EINVAL; a leg on
   such a descriptor is read with a plain blocking read instead, and no
   hedge fires while the loop waits on it. *)
let exchange t jobs =
  let n = Array.length jobs in
  let rest = Array.map (fun j -> j.j_eps) jobs in
  let hedge_at = Array.make n None and started = Array.make n 0L in
  let soft = Array.make n None and failure = Array.make n None in
  let settled = Array.make n None in
  let legs = ref [] in
  (* QUERY legs feed the endpoint's latency histogram; a closed loser
     contributes its time so far, a lower bound, so that [Hedge_auto]'s
     p99 still sees the slow legs it hedged. *)
  let observe l =
    match jobs.(l.l_job).j_cmd with
    | Proto.Query _ ->
      Metrics.observe l.l_ep.e_latency
        (Int64.to_float (Blas_obs.Clock.elapsed_ns l.l_start_ns))
    | _ -> ()
  in
  let settle i outcome =
    settled.(i) <-
      Some
        {
          outcome;
          start_ns = started.(i);
          duration_ns = Blas_obs.Clock.elapsed_ns started.(i);
        };
    hedge_at.(i) <- None;
    let mine, others = List.partition (fun l -> l.l_job = i) !legs in
    List.iter
      (fun l ->
        observe l;
        Client.close l.l_conn)
      mine;
    legs := others
  in
  let rec launch ~hedge i =
    match rest.(i) with
    | [] ->
      if not (List.exists (fun l -> l.l_job = i) !legs) then
        settle i
          (match (soft.(i), failure.(i)) with
          | None, Some e -> Failed e
          | r, _ -> Done (Option.value r ~default:Proto.Busy))
    | ep :: more -> (
      let j = jobs.(i) and t0 = now_ns () in
      rest.(i) <- more;
      hedge_at.(i) <-
        (match (j.j_delay, more) with
        | Some d, _ :: _ -> Some (Int64.add t0 (Int64.of_float (d *. 1e9)))
        | _ -> None);
      if hedge then Metrics.incr t.m_hedge_fired;
      match take_conn ep with
      | exception e -> failed i ep e
      | c -> (
        match
          Client.send ?deadline_ms:(remaining_ms j.j_deadline_ns)
            ~headers:j.j_headers c j.j_cmd
        with
        | exception e ->
          Client.close c;
          failed i ep e
        | () ->
          legs :=
            {
              l_job = i;
              l_ep = ep;
              l_conn = c;
              l_start_ns = t0;
              l_hedge = hedge;
            }
            :: !legs))
  and failed i ep e =
    on_failure t ep;
    if failure.(i) = None then failure.(i) <- Some (Printexc.to_string e);
    launch ~hedge:false i
  in
  let receive l =
    legs := List.filter (fun l' -> l' != l) !legs;
    let i = l.l_job in
    match Client.recv l.l_conn with
    | exception e ->
      Client.close l.l_conn;
      failed i l.l_ep e
    | r -> (
      on_success l.l_ep;
      give_conn l.l_ep l.l_conn;
      observe l;
      match r with
      | Proto.Busy ->
        if soft.(i) = None then soft.(i) <- Some r;
        launch ~hedge:false i
      | _ ->
        if l.l_hedge then Metrics.incr t.m_hedge_won;
        settle i (Done r))
  in
  Array.iteri
    (fun i _ ->
      started.(i) <- now_ns ();
      launch ~hedge:false i)
    jobs;
  while !legs <> [] do
    let now = now_ns () in
    Array.iteri
      (fun i at ->
        match at with
        | Some at when at <= now -> launch ~hedge:true i
        | _ -> ())
      hedge_at;
    let timeout =
      Array.fold_left
        (fun acc at ->
          match at with
          | None -> acc
          | Some at ->
            let s = Float.max 0. (Int64.to_float (Int64.sub at now) /. 1e9) in
            if acc < 0. then s else Float.min acc s)
        (-1.) hedge_at
    in
    let fds = List.map (fun l -> Client.fd l.l_conn) !legs in
    match Unix.select fds [] [] timeout with
    | ready, _, _ ->
      (* A leg settled away by an earlier one in this pass is closed:
         read only the legs still out. *)
      List.iter
        (fun l ->
          if List.memq l !legs && List.mem (Client.fd l.l_conn) ready then
            receive l)
        (List.rev !legs)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception (Unix.Unix_error (Unix.EINVAL, _, _) as e) -> (
      let unselectable l =
        match Unix.select [ Client.fd l.l_conn ] [] [] 0. with
        | _ -> false
        | exception Unix.Unix_error (Unix.EINVAL, _, _) -> true
      in
      match List.find_opt unselectable (List.rev !legs) with
      | Some l -> receive l
      | None -> raise e)
  done;
  Array.map Option.get settled

(* ------------------------------------------------------------------ *)
(* Hedged / failover reads                                            *)

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

(** The job of one read against shard [shard]: primary first among the
    admissible endpoints, then the replicas, hedging after the primary's
    delay.  A lone endpoint hedges against a second connection to itself
    (helps when one connection is stuck); a breaker-open shard has no
    endpoint and answers BUSY. *)
let read_job t ~shard ~deadline_ns ~trace_bg ~doc ~translator ~engine xpath =
  let targets = Array.to_list t.groups.(shard) |> List.filter (admits t) in
  let delay =
    match targets with first :: _ -> hedge_delay_s t first | [] -> None
  in
  {
    j_cmd = Proto.Query { doc; translator; engine; xpath };
    j_headers =
      Option.to_list (Option.map (fun id -> Proto.Trace_bg id) trace_bg);
    j_deadline_ns = deadline_ns;
    j_eps =
      (match targets with
      | [ ep ] when delay <> None -> [ ep; ep ]
      | _ -> targets);
    j_delay = delay;
  }

(* ------------------------------------------------------------------ *)
(* Routing                                                            *)

let route t doc = Hashtbl.find_opt t.table doc

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
    if List.for_all (fun (_, _, k) -> shard_ok k) chunks then None
    else Some Proto.Busy

(* ------------------------------------------------------------------ *)
(* Request bodies                                                     *)

type subresult = {
  sr_shard : int;
  sr_offset : int;
  sr_reply : outcome;
}

(* Scatter one sub-query per chunk (each hop hedged independently) in
   one exchange, and record one span per hop on the caller's tracer. *)
let scatter t ~tracer ~trace_id ~deadline_ns ~translator ~engine ~xpath chunks
    =
  let chunks = Array.of_list chunks in
  let settled =
    exchange t
      (Array.mapi
         (fun i (cdoc, _, shard) ->
           let trace_bg =
             if trace_id = "" then None
             else Some (Printf.sprintf "%s-s%d" trace_id i)
           in
           read_job t ~shard ~deadline_ns ~trace_bg ~doc:cdoc ~translator
             ~engine xpath)
         chunks)
  in
  Array.mapi
    (fun i (cdoc, offset, shard) ->
      let s = settled.(i) in
      let outcome =
        match s.outcome with
        | Done (Proto.Ok_payload _) -> "ok"
        | Done r -> String.lowercase_ascii (Proto.reply_to_string r)
        | Failed e -> "failed: " ^ e
      in
      Blas_obs.Trace.record tracer
        ~attrs:
          [
            ("shard", string_of_int shard); ("doc", cdoc); ("outcome", outcome);
          ]
        ~name:(Printf.sprintf "fanout-s%d" shard)
        ~start_ns:s.start_ns ~duration_ns:s.duration_ns ();
      { sr_shard = shard; sr_offset = offset; sr_reply = s.outcome })
    chunks

let reply_of sr =
  match sr.sr_reply with
  | Done r -> r
  | Failed e ->
    Proto.Err (Printf.sprintf "shard %d unreachable: %s" sr.sr_shard e)

let query_job t ~tracer ~trace_id ~deadline_ns ~doc ~translator ~engine xpath
    =
  match route t doc with
  | None -> Proto.Err (Printf.sprintf "unknown document %S" doc)
  | Some (Single k) ->
    (* Whole document: a single (possibly hedged) hop forwarding the
       shard's payload bytes untouched. *)
    reply_of
      (scatter t ~tracer ~trace_id ~deadline_ns ~translator ~engine ~xpath
         [ (doc, 0, k) ]).(0)
  | Some (Chunks chunks) ->
    let results =
      scatter t ~tracer ~trace_id ~deadline_ns ~translator ~engine ~xpath
        chunks
    in
    (* All chunks must answer: a partial union would silently drop
       answers.  Failure priority: transport error > TIMEOUT > BUSY >
       ERR (any ERR is the same semantic error on every chunk); the
       first chunk of the highest rank answers. *)
    let rank sr =
      match sr.sr_reply with
      | Failed _ -> 0
      | Done Proto.Timeout -> 1
      | Done Proto.Busy -> 2
      | Done (Proto.Err _) -> 3
      | Done _ -> 4
    in
    let worst =
      Array.fold_left
        (fun a sr -> if rank sr < rank a then sr else a)
        results.(0) results
    in
    if rank worst < 4 then reply_of worst
    else
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
             (Merge.merge (Array.to_list parsed |> List.map Option.get)))

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

(* Replica fan-out of one applied edit: deterministic re-apply via
   UPDATEX on every replica in one exchange, invalidation cross-check,
   INVAL push as the stale-cache stopgap to each replica whose re-apply
   failed, and the slowest re-apply's lag behind the primary's ack. *)
let fan_replicas t ~doc ~updatex ~primary_inv ~acked_ns replicas =
  let inv_string = Option.map Proto.invalidation_to_string in
  let lag = ref 0. and lagging = ref [] in
  Array.iteri
    (fun i s ->
      match s.outcome with
      | Done (Proto.Ok_payload _ as r) ->
        if inv_string (snd (Client.updatex_reply r)) <> inv_string primary_inv
        then begin
          Metrics.incr t.m_repl_mismatch;
          Log.warn (fun m ->
              m "replica %s diverged on %s (invalidation mismatch)"
                (endpoint_to_string replicas.(i).e_endpoint)
                doc)
        end;
        lag :=
          Float.max !lag
            (Int64.to_float
               (Int64.sub (Int64.add s.start_ns s.duration_ns) acked_ns))
      | Done _ | Failed _ -> lagging := replicas.(i) :: !lagging)
    (exchange t (Array.map (single updatex) replicas));
  (match primary_inv with
  | Some inv when !lagging <> [] ->
    let push =
      single (Proto.Inval { doc; payload = Proto.invalidation_to_string inv })
    in
    Array.iter
      (fun s ->
        match s.outcome with
        | Done _ -> Metrics.incr t.m_repl_pushed
        | Failed _ -> ())
      (exchange t (Array.of_list (List.rev_map push !lagging)))
  | _ -> ());
  Metrics.set t.m_repl_lag !lag

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
      let updatex = Proto.Updatex { doc; edit } in
      match
        (exchange t [| single ?deadline_ns updatex primary |]).(0).outcome
      with
      | Failed e ->
        Proto.Err (Printf.sprintf "shard %d primary unreachable: %s" shard e)
      | Done reply -> (
        match Client.updatex_reply reply with
        | Proto.Ok_payload payload, inv ->
          let acked_ns = now_ns () in
          let replicas = Array.sub group 1 (Array.length group - 1) in
          if Array.length replicas > 0 then
            fan_replicas t ~doc ~updatex ~primary_inv:inv ~acked_ns replicas;
          if want_invalidation then
            match inv with
            | Some inv ->
              Proto.Ok_payload
                (Proto.invalidation_to_string inv ^ "\n" ^ payload)
            | None -> Proto.Ok_payload payload
          else Proto.Ok_payload payload
        | other, _ -> other))

(* INVAL through the router: push to every endpoint of the owning
   shard.  (A chunk name routes like any other document.) *)
let inval_job t ~doc payload =
  match route t doc with
  | None -> Proto.Err (Printf.sprintf "unknown document %S" doc)
  | Some (Chunks _) ->
    Proto.Err
      (Printf.sprintf "%S is range-partitioned; INVAL must target a chunk" doc)
  | Some (Single shard) ->
    Array.fold_left
      (fun acc s ->
        match (acc, s.outcome) with
        | (Proto.Err _ | Proto.Busy | Proto.Timeout), _ -> acc
        | _, Done ((Proto.Err _ | Proto.Busy | Proto.Timeout) as bad) -> bad
        | _, Done _ -> acc
        | _, Failed e -> Proto.Err ("endpoint unreachable: " ^ e))
      (Proto.Ok_payload "invalidated")
      (exchange t
         (Array.map (single (Proto.Inval { doc; payload })) t.groups.(shard)))

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
              (List.map (fun (c, _, _) -> Blas_obs.Json.Str c) chunks) )
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
            all_names := (doc, k) :: !all_names)
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
  let partitions, _plain = Shard_map.assemble (List.map fst !all_names) in
  List.iter
    (fun (p : Shard_map.partition) ->
      Hashtbl.replace table p.Shard_map.pt_doc
        (Chunks
           (List.map
              (fun (c : Shard_map.chunk) ->
                ( c.Shard_map.ck_doc,
                  c.Shard_map.ck_offset,
                  List.assoc c.Shard_map.ck_doc !all_names ))
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
