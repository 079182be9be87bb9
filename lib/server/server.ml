(** The resident TCP query server: the {!Front} end in the ["server"]
    role, executing requests through {!Service} under the per-document
    reader–writer locks, on worker threads spread over [jobs]
    domains.

    The role adds the QUERY / UPDATE / UPDATEX / SLEEP bodies (the
    debug SLEEP verb only with [allow_sleep]), INVAL applied inline to
    the query cache, the STATS and STATS TIMESERIES payloads, the
    scrape-time mirroring of disk and buffer-pool totals, the
    slow-query log as a per-request completion step, and — on drain —
    the time-series sampler and the slow log. *)

let log_src = Logs.Src.create "blas_server" ~doc:"BLAS network server"

module Log = (val Logs.src_log log_src)

type config = {
  name : string;  (** identity announced in the HELLO handshake *)
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_inflight : int;  (** worker threads executing requests *)
  queue_depth : int;  (** admission slots beyond the workers *)
  default_deadline_ms : int option;  (** per-request budget; [None] = none *)
  jobs : int;  (** domains the worker threads are spread over *)
  cache : bool;  (** per-document semantic query cache *)
  group_commit_ms : float;
      (** batch WAL fsyncs for UPDATEs within this window; 0 = off *)
  allow_sleep : bool;  (** accept the debug SLEEP verb (tests, bench) *)
  metrics_port : int option;
      (** plain-HTTP [GET /metrics] listener; 0 picks an ephemeral port
          (see {!metrics_port}) *)
  slow_ms : float option;  (** slow-query log threshold; [None] = off *)
  slow_log : string;  (** slow-query log path (JSONL) *)
  ts_interval_ms : int;  (** time-series sampling period *)
  ts_slots : int;  (** time-series ring capacity *)
  trace_ring : int;  (** recent traces kept for [TRACE GET] *)
}

let default_config =
  {
    name = "blas";
    host = "127.0.0.1";
    port = 4004;
    max_inflight = 4;
    queue_depth = 16;
    default_deadline_ms = None;
    jobs = 1;
    cache = true;
    group_commit_ms = 0.;
    allow_sleep = false;
    metrics_port = None;
    slow_ms = None;
    slow_log = "blas-slow.jsonl";
    ts_interval_ms = 1000;
    ts_slots = 120;
    trace_ring = 64;
  }

type t = {
  config : config;
  front : Front.t;
  service : Service.t;
  registry : Blas_obs.Metrics.t;
  slowlog : Blas_obs.Slowlog.t option;
  timeseries : Blas_obs.Timeseries.t;
  mutable sampler : Thread.t option;
}

let port t = Front.port t.front

let metrics_port t = Front.metrics_port t.front

let registry t = t.registry

let service t = t.service

let now_ns = Blas_obs.Clock.now_ns

(* ------------------------------------------------------------------ *)
(* STATS / METRICS                                                    *)

(* Scrape-time mirroring: the disk layer and the buffer pool keep their
   own cumulative totals (one owner per number); every exposition
   refreshes the registry from them instead of double-counting events.
   The handle lookups are hash probes — fine on the scrape path. *)
let refresh_gauges t =
  List.iter
    (fun (d : Service.doc) ->
      let labels = [ ("doc", d.Service.name) ] in
      let gauge name = Blas_obs.Metrics.gauge t.registry ~labels name in
      let counter name = Blas_obs.Metrics.counter t.registry ~labels name in
      let pool = Blas.Storage.pool d.Service.storage in
      let requests = Blas_rel.Buffer_pool.requests pool in
      let misses = Blas_rel.Buffer_pool.misses pool in
      let ratio =
        if requests = 0 then 1.0
        else float_of_int (requests - misses) /. float_of_int requests
      in
      Blas_obs.Metrics.set (gauge "blas.pool.hit_ratio") ratio;
      Blas_obs.Metrics.set_counter
        (counter "blas.pool.dirty_evictions")
        (Blas_rel.Buffer_pool.dirty_evictions pool);
      match Blas.Storage.disk d.Service.storage with
      | None -> ()
      | Some dk ->
        let io = dk.Blas.Storage.dk_io () in
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.wal.fsyncs")
          io.Blas_disk.Store.io_wal_fsyncs;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.commits")
          io.Blas_disk.Store.io_commits;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.checkpoints")
          io.Blas_disk.Store.io_checkpoints;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.page.reads")
          io.Blas_disk.Store.io_page_reads;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.group.commits")
          io.Blas_disk.Store.io_group_commits;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.group.saved_fsyncs")
          io.Blas_disk.Store.io_group_saved_fsyncs;
        Blas_obs.Metrics.set
          (gauge "blas.disk.wal.backlog_bytes")
          (float_of_int (dk.Blas.Storage.dk_wal_bytes ())))
    (Service.docs t.service)

let metrics_payload t fmt = Front.metrics_payload t.front fmt

let timeseries_payload t =
  Blas_obs.Json.to_string_pretty (Blas_obs.Timeseries.to_json t.timeseries)

let stats_payload t =
  refresh_gauges t;
  let st = Front.status t.front in
  Blas_obs.Json.to_string_pretty
    (Blas_obs.Json.Obj
       [
         ( "server",
           Blas_obs.Json.Obj
             [
               ("phase", Blas_obs.Json.Str st.Front.phase);
               ("uptime_ns", Blas_obs.Json.Int st.Front.uptime_ns);
               ("inflight", Blas_obs.Json.Int st.Front.inflight);
               ("queued", Blas_obs.Json.Int st.Front.queued);
               ("max_inflight", Blas_obs.Json.Int t.config.max_inflight);
               ("queue_depth", Blas_obs.Json.Int t.config.queue_depth);
               ("jobs", Blas_obs.Json.Int t.config.jobs);
               ("connections", Blas_obs.Json.Int st.Front.connections);
               ( "requests",
                 Blas_obs.Json.Obj
                   (List.map
                      (fun (o, n) -> (o, Blas_obs.Json.Int n))
                      st.Front.requests) );
             ] );
         ("docs", Service.docs_json t.service);
         ("metrics", Blas_obs.Metrics.to_json t.registry);
       ])

(* ------------------------------------------------------------------ *)
(* Request bodies and the slow-query log                              *)

let slow_record ~verb ~detail ~elapsed_ns ~queue_ns ~(info : Service.info)
    ~trace_id () =
  Blas_obs.Json.Obj
    ([
       ("at_ms", Blas_obs.Json.Float (Unix.gettimeofday () *. 1000.));
       ("verb", Blas_obs.Json.Str verb);
     ]
    @ List.map (fun (k, v) -> (k, Blas_obs.Json.Str v)) detail
    @ [
        ("elapsed_ns", Blas_obs.Json.Int (Int64.to_int elapsed_ns));
        ("queue_wait_ns", Blas_obs.Json.Int (Int64.to_int queue_ns));
        ("lock_wait_ns", Blas_obs.Json.Int (Int64.to_int info.i_lock_wait_ns));
        ("pages_read", Blas_obs.Json.Int info.i_pages_read);
        ("cache", Blas_obs.Json.Str info.i_cache);
        ( "chosen_plan",
          match info.i_plan with
          | Some p -> Blas_obs.Json.Str p
          | None -> Blas_obs.Json.Null );
        ( "est_cost",
          match info.i_est_cost with
          | Some c -> Blas_obs.Json.Float c
          | None -> Blas_obs.Json.Null );
        ( "actual_cost",
          match info.i_actual_cost with
          | Some c -> Blas_obs.Json.Float c
          | None -> Blas_obs.Json.Null );
        ( "trace_id",
          if trace_id = "" then Blas_obs.Json.Null
          else Blas_obs.Json.Str trace_id );
      ])

(* An admitted QUERY / UPDATE: the service call, then its completion
   step — the slow-log gate over the call's {!Service.info}. *)
let logged t ~verb ~detail f =
  let run (ctx : Front.ctx) =
    match t.slowlog with
    | None -> fst (f ctx)
    | Some sl ->
      let t0 = now_ns () in
      let reply, info = f ctx in
      let elapsed_ns = Blas_obs.Clock.elapsed_ns t0 in
      Blas_obs.Slowlog.maybe sl ~elapsed_ns
        (slow_record ~verb ~detail ~elapsed_ns ~queue_ns:ctx.queue_ns ~info
           ~trace_id:ctx.trace_id);
      reply
  in
  Front.Admit { Front.verb; detail; run }

(* 1 ms naps with a cancellation check between them: the debug verb
   behaves like an adversarially slow query with perfect manners. *)
let sleep_job ms ~token =
  let deadline = Int64.add (now_ns ()) (Int64.of_int (ms * 1_000_000)) in
  while Int64.compare (now_ns ()) deadline < 0 do
    Blas.Par.Token.check token;
    Thread.delay 0.001
  done;
  Proto.Ok_payload (Printf.sprintf "slept %d" ms)

let request t = function
  | Proto.Query { doc; translator; engine; xpath } ->
    logged t ~verb:"query"
      ~detail:
        [
          ("doc", doc);
          ("query", xpath);
          ("translator", Proto.translator_to_string translator);
          ("engine", Proto.engine_to_string engine);
        ]
      (fun ctx ->
        Service.query_info t.service ~token:ctx.Front.token
          ~tracer:ctx.Front.tracer ~doc ~translator ~engine xpath)
  | Proto.Update { doc; edit } ->
    logged t ~verb:"update" ~detail:[ ("doc", doc) ] (fun ctx ->
        Service.update_info t.service ~tracer:ctx.Front.tracer ~doc edit)
  | Proto.Updatex { doc; edit } ->
    logged t ~verb:"update" ~detail:[ ("doc", doc) ] (fun ctx ->
        let reply, info, inv =
          Service.update_full t.service ~tracer:ctx.Front.tracer ~doc edit
        in
        (* The reply's first line is the invalidation the router pushes
           to read replicas. *)
        match (reply, inv) with
        | Proto.Ok_payload payload, Some inv ->
          ( Proto.Ok_payload (Proto.invalidation_to_string inv ^ "\n" ^ payload),
            info )
        | _ -> (reply, info))
  | Proto.Sleep _ when not t.config.allow_sleep ->
    Front.Answer (Proto.Err "SLEEP is disabled on this server")
  | Proto.Sleep ms ->
    Front.Admit
      {
        Front.verb = "sleep";
        detail = [];
        run = (fun ctx -> sleep_job ms ~token:ctx.Front.token);
      }
  | Proto.Inval { doc; payload } ->
    Front.Answer (Service.invalidate t.service ~doc payload)
  | Proto.Stats -> Front.Answer (Proto.Ok_payload (stats_payload t))
  | Proto.Stats_timeseries ->
    Front.Answer (Proto.Ok_payload (timeseries_payload t))
  | cmd ->
    Front.Answer
      (Proto.Err ("not served: " ^ Proto.command_to_line cmd))

(* ------------------------------------------------------------------ *)
(* The time-series sampler                                            *)

(* One registry snapshot per interval into the fixed ring; naps in
   small slices so a drain never waits a full period. *)
let sampler_loop t =
  let rec nap remaining =
    if Front.running t.front && remaining > 0. then begin
      Thread.delay (Float.min 0.05 remaining);
      nap (remaining -. 0.05)
    end
  in
  while Front.running t.front do
    refresh_gauges t;
    Blas_obs.Timeseries.push t.timeseries
      ~at_ms:(Unix.gettimeofday () *. 1000.)
      (Blas_obs.Metrics.to_json t.registry);
    nap (float_of_int t.config.ts_interval_ms /. 1000.)
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

let drain t () =
  Option.iter Thread.join t.sampler;
  t.sampler <- None;
  Option.iter Blas_obs.Slowlog.close t.slowlog

let start ?(registry = Blas_obs.Metrics.create ()) config ~docs =
  let config =
    {
      config with
      max_inflight = max 1 config.max_inflight;
      queue_depth = max 0 config.queue_depth;
    }
  in
  let slowlog =
    Option.map
      (fun threshold_ms ->
        Blas_obs.Slowlog.create ~path:config.slow_log ~threshold_ms ())
      config.slow_ms
  in
  let front =
    try
      Front.create ~role:"server" ~registry
        {
          Front.host = config.host;
          port = config.port;
          max_inflight = config.max_inflight;
          queue_depth = config.queue_depth;
          default_deadline_ms = config.default_deadline_ms;
          metrics_port = config.metrics_port;
          trace_ring = config.trace_ring;
        }
    with e ->
      Option.iter Blas_obs.Slowlog.close slowlog;
      raise e
  in
  let service =
    Service.create ~cache:config.cache
      ~group_commit_ms:config.group_commit_ms docs
  in
  (* Event-time duration histograms of the disk layer (WAL fsync,
     checkpoint); the counts are mirrored from the I/O totals at scrape
     time by [refresh_gauges]. *)
  List.iter
    (fun (d : Service.doc) ->
      match Blas.Storage.disk d.Service.storage with
      | Some dk ->
        dk.Blas.Storage.dk_set_metrics registry
          ~labels:[ ("doc", d.Service.name) ]
      | None -> ())
    (Service.docs service);
  let t =
    {
      config;
      front;
      service;
      registry;
      slowlog;
      timeseries = Blas_obs.Timeseries.create ~capacity:(max 1 config.ts_slots);
      sampler = None;
    }
  in
  Front.serve ~domains:config.jobs front
    {
      Front.name = config.name;
      list = (fun () -> Service.list_payload service);
      refresh = (fun () -> refresh_gauges t);
      request = request t;
      drain = drain t;
    };
  t.sampler <- Some (Thread.create sampler_loop t);
  Log.info (fun m ->
      m "serving %d document(s) on %s:%d (-j %d, %d workers, queue %d)"
        (List.length docs) config.host (port t) config.jobs
        config.max_inflight config.queue_depth);
  t

let request_shutdown t = Front.request_shutdown t.front

let wait t = Front.wait t.front

let stop t = Front.stop t.front

let with_server ?registry config ~docs f =
  let t = start ?registry config ~docs in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
