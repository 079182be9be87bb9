(** The serving front end shared by {!Server} and the cluster router:
    listen sockets, the per-connection read loop with its one-shot
    [DEADLINE] / [TRACE] headers, bounded admission with deadlines, the
    trace ring, the [GET /metrics] listener and the graceful drain.  A
    role plugs in a {!handler}; see the implementation header and
    DESIGN.md §12 for the header rule. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_inflight : int;  (** worker threads executing requests *)
  queue_depth : int;  (** admission slots beyond the workers *)
  default_deadline_ms : int option;  (** per-request budget; [None] = none *)
  metrics_port : int option;
      (** plain-HTTP [GET /metrics] listener; 0 picks an ephemeral port *)
  trace_ring : int;  (** recent traces kept for [TRACE GET] *)
}

(** What an admitted request body receives. *)
type ctx = {
  token : Blas.Par.Token.t;  (** fires at the deadline *)
  queue_ns : int64;  (** admission-queue wait, measured at pick-up *)
  deadline_ns : int64 option;  (** absolute, on {!Blas_obs.Clock} *)
  tracer : Blas_obs.Trace.t;  (** disabled unless a TRACE header opted in *)
  trace_id : string;  (** [""] when untraced *)
}

type request = {
  verb : string;  (** latency-histogram label and span attribute *)
  detail : (string * string) list;  (** request-span attributes *)
  run : ctx -> Proto.reply;
      (** [Blas.Par.Cancelled] answers [TIMEOUT]; any other
          exception answers [ERR] *)
}

type action =
  | Answer of Proto.reply  (** answered inline, not a counted request *)
  | Reject of Proto.reply  (** refused before queuing, counted *)
  | Admit of request  (** queued; takes the pending headers *)

(** A role: what differs between [blas serve] and [blas route]. *)
type handler = {
  name : string;  (** identity announced in the HELLO handshake *)
  list : unit -> string;  (** the LIST payload (also sent in HELLO) *)
  refresh : unit -> unit;  (** scrape-time gauge refresh *)
  request : Proto.command -> action;
      (** every command but PING, LIST, HELLO, METRICS, TRACE GET, QUIT,
          SHUTDOWN and the headers *)
  drain : unit -> unit;  (** runs once the last connection closed *)
}

type t

(** [create ~role ~registry config] — bind the protocol socket (and the
    HTTP listener when configured) and register the admission metrics
    under the [role] prefix ([role.requests], [role.request.latency_ns],
    [role.queue.depth], [role.inflight], [role.connections]).  No
    thread runs until {!serve}.
    @raise Unix.Unix_error when an address cannot be bound. *)
val create : role:string -> registry:Blas_obs.Metrics.t -> config -> t

(** [serve ?domains t handler] — install the role and spawn the
    accept, HTTP and worker threads.  The [max_inflight] workers are
    dealt round-robin over [domains] domains (default 1, clamped to
    [1 .. max_inflight]), this one included: [domains - 1] further
    domains are spawned, and {!stop} joins them. *)
val serve : ?domains:int -> t -> handler -> unit

(** The actual bound port (useful with [port = 0]). *)
val port : t -> int

(** The bound port of the HTTP metrics listener, when configured. *)
val metrics_port : t -> int option

(** [false] once a drain began. *)
val running : t -> bool

(** The METRICS reply body: the registry, refreshed by the role, as
    Prometheus text exposition or JSON. *)
val metrics_payload : t -> [ `Prom | `Json ] -> string

type status = {
  phase : string;  (** running / draining / stopped *)
  uptime_ns : int;
  inflight : int;
  queued : int;
  connections : int;  (** accepted since start *)
  requests : (string * int) list;  (** outcome → count *)
}

(** Admission state for the role's STATS payload. *)
val status : t -> status

(** Flag a graceful shutdown; async-signal-safe (a single atomic
    store), so a SIGTERM handler may call it directly. *)
val request_shutdown : t -> unit

(** Block until {!stop} completed or a shutdown was requested (SHUTDOWN
    verb or {!request_shutdown}). *)
val wait : t -> unit

(** Graceful drain; idempotent.  Stops accepting, rejects new
    admissions, finishes queued and in-flight requests (each still
    bounded by its own deadline), closes connections, joins every
    thread, runs the role's drain hook and flushes final gauges. *)
val stop : t -> unit
