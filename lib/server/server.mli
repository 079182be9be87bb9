(** The resident TCP query server: bounded admission (overload answers
    [BUSY], never blocks), per-request deadlines with cooperative
    cancellation (late answers become [TIMEOUT]), per-document
    reader–writer discipline via {!Service}, and a graceful drain. *)

type config = {
  name : string;  (** identity announced in the HELLO handshake *)
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_inflight : int;  (** worker threads executing requests *)
  queue_depth : int;  (** admission slots beyond the workers *)
  default_deadline_ms : int option;  (** per-request budget; [None] = none *)
  jobs : int;
      (** domains the [max_inflight] worker threads are spread over:
          requests run in parallel, each one sequentially *)
  cache : bool;  (** per-document semantic query cache *)
  group_commit_ms : float;
      (** batch WAL fsyncs for UPDATEs arriving within this window on
          the same document (each reply still waits for durability);
          0 = every commit fsyncs synchronously *)
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

(** 127.0.0.1:4004, 4 workers, queue 16, no deadline, [-j 1], cache on,
    group commit off, SLEEP off, no HTTP metrics listener, no slow log,
    1 s time-series samples over 120 slots, 64 recent traces. *)
val default_config : config

type t

(** [start ?registry config ~docs] — bind, spawn the accept and worker
    threads, return immediately.  [registry] receives the server
    metrics (fresh by default).
    @raise Unix.Unix_error when the address cannot be bound. *)
val start :
  ?registry:Blas_obs.Metrics.t ->
  config ->
  docs:(string * Blas.Storage.t) list ->
  t

(** The actual bound port (useful with [port = 0]). *)
val port : t -> int

(** The bound port of the HTTP metrics listener, when configured. *)
val metrics_port : t -> int option

val registry : t -> Blas_obs.Metrics.t

val service : t -> Service.t

(** The STATS reply body (pretty-printed JSON): server phase and
    admission state, per-document lock/cache occupancy, full metrics. *)
val stats_payload : t -> string

(** The METRICS reply body: the registry — refreshed from the disk and
    buffer-pool totals — as Prometheus text exposition or JSON. *)
val metrics_payload : t -> [ `Prom | `Json ] -> string

(** The STATS TIMESERIES reply body: the snapshot ring, oldest first. *)
val timeseries_payload : t -> string

(** Flag a graceful shutdown; async-signal-safe (a single atomic
    store), so a SIGTERM handler may call it directly.  {!wait}
    observes the flag; the owner then runs {!stop}. *)
val request_shutdown : t -> unit

(** Block until {!stop} completed or a shutdown was requested (SHUTDOWN
    verb or {!request_shutdown}). *)
val wait : t -> unit

(** Graceful drain; idempotent.  Stops accepting, rejects new
    admissions, finishes queued and in-flight requests (each still
    bounded by its own deadline), closes connections, joins every
    thread and worker domain and flushes final gauges. *)
val stop : t -> unit

(** [with_server ?registry config ~docs f] — {!start}, run [f],
    {!stop} (tests and benches). *)
val with_server :
  ?registry:Blas_obs.Metrics.t ->
  config ->
  docs:(string * Blas.Storage.t) list ->
  (t -> 'a) ->
  'a
