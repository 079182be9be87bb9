(** The serving front end shared by [blas serve] ({!Server}) and
    [blas route] (the cluster router): everything between the socket
    and a role's request bodies.

    One accept thread, one handler thread per connection, and a fixed
    set of [max_inflight] worker threads draining a bounded admission
    queue.  The workers are dealt round-robin over [domains] domains,
    the serving domain included, so up to [domains] admitted requests
    execute at once; each request runs as one sequential plan on the
    worker that picked it up.  Accept and connection threads stay on
    the serving domain: they only parse frames and wait.  Handler
    threads parse frames and answer the cheap verbs (PING, LIST, HELLO,
    METRICS, TRACE GET) inline and hand the rest to the role's
    {!handler}, which either answers inline or returns a {!request} to
    {e admit}:

    - at most [max_inflight + queue_depth] requests are outstanding;
      past that the reply is an immediate [BUSY] — overload never
      blocks the socket;
    - every admitted request carries an absolute deadline (the
      connection's [DEADLINE] header, else [default_deadline_ms]); a
      request that is already past it when a worker picks it up — or
      whose cooperative cancellation token fires mid-run — answers
      [TIMEOUT];
    - a [TRACE] header runs the request under a fresh tracer and keeps
      the span tree in a ring for [TRACE GET].

    Header rule: [DEADLINE] and [TRACE*] frames are one-shot and carry
    no reply.  The next non-header frame takes them — a command, a
    rejected command or an unparsable line alike — and only an admitted
    request applies what it took.

    Drain ({!stop}, or SIGTERM via {!request_shutdown} + {!wait}):
    stop accepting, reject new admissions, finish the queued and
    in-flight work (each still bounded by its own deadline), close the
    remaining connections, join every thread, run the role's drain hook
    and flush final gauges.  {!stop} is idempotent. *)

let log_src = Logs.Src.create "blas_front" ~doc:"BLAS serving front end"

module Log = (val Logs.src_log log_src)
module Metrics = Blas_obs.Metrics

let now_ns = Blas_obs.Clock.now_ns

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  max_inflight : int;  (** worker threads executing requests *)
  queue_depth : int;  (** admission slots beyond the workers *)
  default_deadline_ms : int option;  (** per-request budget; [None] = none *)
  metrics_port : int option;  (** plain-HTTP [GET /metrics] listener *)
  trace_ring : int;  (** recent traces kept for [TRACE GET] *)
}

(* How a request is traced, set by the one-shot TRACE headers:
   [`Inline] (and [`Inline_id], which fixes the id — routers derive
   per-shard ids from the client's) replace the reply payload with the
   JSON trace envelope; [`Bg] stores the trace in the ring under the
   given id but leaves the reply payload untouched, so a router
   fanning out sub-queries still merges plain answer frames. *)
type trace_mode = [ `Off | `Inline | `Inline_id of string | `Bg of string ]

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
}

type action =
  | Answer of Proto.reply  (** answered inline, not a counted request *)
  | Reject of Proto.reply  (** refused before queuing, counted *)
  | Admit of request

type handler = {
  name : string;  (** identity announced in the HELLO handshake *)
  list : unit -> string;  (** the LIST payload (also sent in HELLO) *)
  refresh : unit -> unit;  (** scrape-time gauge refresh *)
  request : Proto.command -> action;
      (** every command the front end does not answer itself *)
  drain : unit -> unit;  (** after the last connection closed *)
}

type phase = Running | Draining | Stopped

type job = {
  req : request;
  trace : trace_mode;
  deadline_ns : int64 option;
  enqueued_ns : int64;
  mutable result : Proto.reply option;
}

type t = {
  role : string;  (** ["server"] or ["router"]: the metric prefix *)
  config : config;
  registry : Metrics.t;
  listen_fd : Unix.file_descr;
  port : int;
  http_fd : Unix.file_descr option;
  http_port : int option;
  lock : Mutex.t;
  nonempty : Condition.t;  (* a job was queued, or drain began *)
  job_done : Condition.t;  (* some job completed *)
  queue : job Queue.t;
  mutable inflight : int;
  mutable phase : phase;
  shutdown_requested : bool Atomic.t;
  mutable handler : handler option;  (** set by {!serve} *)
  mutable threads : Thread.t list;
      (** accept, HTTP and the serving domain's worker threads *)
  mutable domains : unit Domain.t list;
      (** further worker domains, each joining its own worker threads *)
  mutable conns : (Unix.file_descr * Thread.t) list;
  started_ns : int64;
  (* recent traces, retrievable by id: (trace id, serialized body) *)
  traces : (string * string) option array;
  traces_lock : Mutex.t;
  mutable traces_next : int;
  (* resolved metric handles — one hash probe each at startup *)
  m_outcome : string -> Metrics.counter;
  m_latency : string -> Metrics.histogram;
  m_queue : Metrics.gauge;
  m_inflight : Metrics.gauge;
  m_conns : Metrics.counter;
}

let port t = t.port

let metrics_port t = t.http_port

let running t = t.phase = Running

let handler t = Option.get t.handler

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)

let outcomes = [ "ok"; "error"; "busy"; "timeout" ]

let outcome_of_reply = function
  | Proto.Ok_payload _ | Proto.Bye -> "ok"
  | Proto.Err _ -> "error"
  | Proto.Busy -> "busy"
  | Proto.Timeout -> "timeout"

let record_outcome t reply = Metrics.incr (t.m_outcome (outcome_of_reply reply))

let set_gauges_locked t =
  Metrics.set t.m_queue (float_of_int (Queue.length t.queue));
  Metrics.set t.m_inflight (float_of_int t.inflight)

(* Admission control: reject with [BUSY] when [max_inflight +
   queue_depth] requests are already outstanding, with [ERR] when
   draining; otherwise block until a worker finishes the job. *)
let submit t job =
  Mutex.lock t.lock;
  let reject reply =
    Mutex.unlock t.lock;
    record_outcome t reply;
    reply
  in
  if t.phase <> Running then reject (Proto.Err (t.role ^ " is shutting down"))
  else if
    Queue.length t.queue + t.inflight
    >= t.config.max_inflight + t.config.queue_depth
  then reject Proto.Busy
  else begin
    Queue.push job t.queue;
    set_gauges_locked t;
    Condition.signal t.nonempty;
    while job.result = None do
      Condition.wait t.job_done t.lock
    done;
    let reply = Option.get job.result in
    Mutex.unlock t.lock;
    reply
  end

(* ------------------------------------------------------------------ *)
(* The trace ring and the traced-request envelope                     *)

let store_trace t id body =
  Mutex.lock t.traces_lock;
  t.traces.(t.traces_next) <- Some (id, body);
  t.traces_next <- (t.traces_next + 1) mod Array.length t.traces;
  Mutex.unlock t.traces_lock

let find_trace t id =
  Mutex.lock t.traces_lock;
  let found =
    Array.fold_left
      (fun acc slot ->
        match slot with Some (i, body) when i = id -> Some body | _ -> acc)
      None t.traces
  in
  Mutex.unlock t.traces_lock;
  found

(* Runs one admitted body with the request-scoped observability around
   it: a fresh per-request tracer when a TRACE header opted in (a
   tracer nests spans per domain, and the worker threads of one domain
   would interleave concurrent requests into one tree) and the queue
   wait recorded from the admission stamp; when traced, the span tree is stored in the
   ring and (inline modes only) returned as the JSON payload. *)
let traced t job ~token ~queue_ns =
  let traced = job.trace <> `Off in
  let tracer =
    if traced then Blas_obs.Trace.create ~enabled:true ()
    else Blas_obs.Trace.disabled
  in
  let trace_id =
    match job.trace with
    | `Off -> ""
    | `Inline -> Blas_obs.Trace.fresh_id ()
    | `Inline_id id | `Bg id -> id
  in
  let t0 = now_ns () in
  let reply =
    Blas_obs.Trace.with_span tracer "request"
      ~attrs:(("verb", job.req.verb) :: ("trace_id", trace_id) :: job.req.detail)
    @@ fun () ->
    Blas_obs.Trace.record tracer ~name:"queue-wait"
      ~start_ns:(Int64.sub t0 queue_ns) ~duration_ns:queue_ns ();
    job.req.run
      { token; queue_ns; deadline_ns = job.deadline_ns; tracer; trace_id }
  in
  if not traced then reply
  else begin
    (* In the inline modes the traced payload replaces the plain one;
       untraced and background-traced requests keep byte-identical
       replies (the soak tests and the router's merge compare them). *)
    let with_trace rest =
      Blas_obs.Json.to_string
        (Blas_obs.Json.Obj
           (("trace_id", Blas_obs.Json.Str trace_id)
           :: (rest @ [ ("trace", Blas_obs.Trace.to_json tracer) ])))
    in
    let body =
      match reply with
      | Proto.Ok_payload payload ->
        with_trace [ ("payload", Blas_obs.Json.Str payload) ]
      | other ->
        with_trace [ ("outcome", Blas_obs.Json.Str (outcome_of_reply other)) ]
    in
    store_trace t trace_id body;
    match (job.trace, reply) with
    | `Bg _, _ -> reply
    | _, Proto.Ok_payload _ -> Proto.Ok_payload body
    | _, other -> other
  end

(* Runs one admitted job: deadline pre-check, then the body under a
   token that expires at the deadline.  Outcome and latency are
   recorded here, so the counters reconcile with what clients saw. *)
let execute t job =
  let queue_ns = Int64.sub (now_ns ()) job.enqueued_ns in
  let expired_now () =
    match job.deadline_ns with
    | Some d -> Int64.compare (now_ns ()) d >= 0
    | None -> false
  in
  let reply =
    if expired_now () then Proto.Timeout
    else
      let token = Blas.Par.Token.create ~expired:expired_now () in
      match traced t job ~token ~queue_ns with
      | reply -> reply
      | exception Blas.Par.Cancelled -> Proto.Timeout
      | exception e ->
        Log.warn (fun m ->
            m "%s %s request failed: %s" t.role job.req.verb
              (Printexc.to_string e));
        Proto.Err (Printexc.to_string e)
  in
  record_outcome t reply;
  Metrics.observe
    (t.m_latency job.req.verb)
    (Int64.to_float (Int64.sub (now_ns ()) job.enqueued_ns));
  reply

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while t.phase = Running && Queue.is_empty t.queue do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then
      (* Draining and nothing left: exit.  Workers only stop once the
         queue is empty, so every admitted job gets a real reply. *)
      Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      t.inflight <- t.inflight + 1;
      set_gauges_locked t;
      Mutex.unlock t.lock;
      let reply = execute t job in
      Mutex.lock t.lock;
      job.result <- Some reply;
      t.inflight <- t.inflight - 1;
      set_gauges_locked t;
      Condition.broadcast t.job_done;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Scrape payloads and admission state                                *)

let metrics_payload t fmt =
  Option.iter (fun h -> h.refresh ()) t.handler;
  match fmt with
  | `Prom -> Blas_obs.Expo.render t.registry
  | `Json -> Blas_obs.Json.to_string_pretty (Metrics.to_json t.registry)

type status = {
  phase : string;  (** running / draining / stopped *)
  uptime_ns : int;
  inflight : int;
  queued : int;
  connections : int;  (** accepted since start *)
  requests : (string * int) list;  (** outcome → count *)
}

let status t =
  Mutex.lock t.lock;
  let queued = Queue.length t.queue
  and inflight = t.inflight
  and phase = t.phase in
  Mutex.unlock t.lock;
  {
    phase =
      (match phase with
      | Running -> "running"
      | Draining -> "draining"
      | Stopped -> "stopped");
    uptime_ns = Int64.to_int (Int64.sub (now_ns ()) t.started_ns);
    inflight;
    queued;
    connections = Metrics.counter_value t.m_conns;
    requests =
      List.map (fun o -> (o, Metrics.counter_value (t.m_outcome o))) outcomes;
  }

(* ------------------------------------------------------------------ *)
(* Connection handling                                                *)

type headers = { deadline_ms : int option; trace : trace_mode }

let no_headers = { deadline_ms = None; trace = `Off }

let deadline_of t header_ms =
  let ms =
    match header_ms with
    | Some ms -> Some ms
    | None -> t.config.default_deadline_ms
  in
  Option.map
    (fun ms -> Int64.add (now_ns ()) (Int64.of_int (ms * 1_000_000)))
    ms

(* One non-header command, with the headers it took. *)
let command t headers cmd =
  let h = handler t in
  match cmd with
  | Proto.Ping -> Proto.Ok_payload "pong"
  | Proto.List_docs -> Proto.Ok_payload (h.list ())
  | Proto.Metrics fmt -> Proto.Ok_payload (metrics_payload t fmt)
  | Proto.Hello peer ->
    Log.debug (fun m -> m "HELLO from %s" peer);
    Proto.Ok_payload (Printf.sprintf "shard %s\n%s" h.name (h.list ()))
  | Proto.Trace_get id -> (
    match find_trace t id with
    | Some body -> Proto.Ok_payload body
    | None -> Proto.Err (Printf.sprintf "unknown trace id %S" id))
  | Proto.Quit | Proto.Shutdown -> Proto.Bye
  | cmd -> (
    match h.request cmd with
    | Answer reply -> reply
    | Reject reply ->
      record_outcome t reply;
      reply
    | Admit req ->
      submit t
        {
          req;
          trace = headers.trace;
          deadline_ns = deadline_of t headers.deadline_ms;
          enqueued_ns = now_ns ();
          result = None;
        })

let request_shutdown t = Atomic.set t.shutdown_requested true

let handle_connection t fd =
  let io = Proto.Io.of_fd fd in
  Metrics.incr t.m_conns;
  (* Only a header frame carries the pending headers into the next
     iteration; every other frame restarts from [no_headers]. *)
  let rec loop pending =
    match Proto.Io.read_line io ~max:Proto.max_frame with
    | `Eof -> ()
    | `Too_long ->
      (* The stream cannot be resynchronized past an oversized frame:
         answer and hang up. *)
      Proto.write_reply io (Proto.Err "frame too large")
    | `Line line -> (
      match Proto.parse_command line with
      | Ok (Proto.Deadline ms) -> loop { pending with deadline_ms = Some ms }
      | Ok Proto.Trace_hdr -> loop { pending with trace = `Inline }
      | Ok (Proto.Trace_id id) -> loop { pending with trace = `Inline_id id }
      | Ok (Proto.Trace_bg id) -> loop { pending with trace = `Bg id }
      | Error msg ->
        (* Garbage is survivable frame by frame — answer ERR, keep the
           connection. *)
        Proto.write_reply io (Proto.Err msg);
        loop no_headers
      | Ok cmd -> (
        Proto.write_reply io (command t pending cmd);
        match cmd with
        | Proto.Quit -> ()
        | Proto.Shutdown -> request_shutdown t
        | _ -> loop no_headers))
  in
  (try loop no_headers with
  | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
    (* Peer vanished mid-reply; admitted work already ran to completion
       under its own locks, nothing leaks. *)
    ()
  | e ->
    Log.warn (fun m -> m "%s connection handler: %s" t.role (Printexc.to_string e)));
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (* Deregister before closing: {!stop} only shuts down fds still in
     [conns] (under the lock), so it never touches a closed — possibly
     reused — descriptor. *)
  Mutex.lock t.lock;
  t.conns <- List.filter (fun (c, _) -> c != fd) t.conns;
  Mutex.unlock t.lock;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The listen sockets are non-blocking and polled: a thread parked
   inside a blocking [Unix.accept] would not be woken by another thread
   closing the descriptor, and the drain would hang on its join.
   Running out of descriptors or kernel memory is transient — the
   listener backs off and keeps accepting once they are freed. *)
let accept_loop (t : t) ~what fd serve =
  let rec loop ~starved =
    if t.phase = Running then
      match Unix.accept fd with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        Thread.delay 0.02;
        loop ~starved
      | exception Unix.Unix_error ((ECONNABORTED | EINTR), _, _) -> loop ~starved
      | exception Unix.Unix_error (((EMFILE | ENFILE | ENOBUFS | ENOMEM) as err), _, _)
        ->
        if not starved then
          Log.warn (fun m ->
              m "%s %s accept: %s; backing off" t.role what
                (Unix.error_message err));
        Thread.delay 0.05;
        loop ~starved:true
      | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
        (* The listen socket was closed: drain began. *)
        ()
      | exception e ->
        if t.phase = Running then
          Log.err (fun m -> m "%s %s accept: %s" t.role what (Printexc.to_string e))
      | cfd, _ ->
        (* The connection socket itself stays blocking; {!stop} wakes
           parked reads with [Unix.shutdown], which does interrupt. *)
        Unix.clear_nonblock cfd;
        serve cfd;
        loop ~starved:false
  in
  loop ~starved:false

let serve_connection t fd =
  (* Replies are written as header + payload; without TCP_NODELAY Nagle
     holds the second write for the peer's delayed ACK and every round
     trip costs ~40 ms. *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let thread = Thread.create (fun () -> handle_connection t fd) () in
  Mutex.lock t.lock;
  t.conns <- (fd, thread) :: t.conns;
  Mutex.unlock t.lock

(* A deliberately minimal HTTP/1.1 responder: one request per
   connection, GET only, close after the reply — all a Prometheus
   scraper needs. *)
let serve_http_request t cfd =
  let io = Proto.Io.of_fd cfd in
  match Proto.Io.read_line io ~max:Proto.max_frame with
  | `Eof | `Too_long -> ()
  | `Line request_line ->
    (* Drain the headers (bounded) so the peer's write never stalls. *)
    let rec drain n =
      if n > 0 then
        match Proto.Io.read_line io ~max:Proto.max_frame with
        | `Line "" | `Eof | `Too_long -> ()
        | `Line _ -> drain (n - 1)
    in
    drain 64;
    let path =
      match String.split_on_char ' ' request_line with
      | _meth :: path :: _ -> path
      | _ -> ""
    in
    let status, ctype, body =
      match path with
      | "/metrics" ->
        ( "200 OK",
          "text/plain; version=0.0.4; charset=utf-8",
          metrics_payload t `Prom )
      | "/metrics.json" -> ("200 OK", "application/json", metrics_payload t `Json)
      | _ -> ("404 Not Found", "text/plain; charset=utf-8", "not found\n")
    in
    Proto.Io.write io
      (Printf.sprintf
         "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
          Connection: close\r\n\r\n%s"
         status ctype (String.length body) body)

let serve_http t cfd =
  (try serve_http_request t cfd
   with Unix.Unix_error _ -> () (* scraper hung up mid-reply *));
  try Unix.close cfd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

let listen ~host ~backlog port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd backlog;
    Unix.set_nonblock fd
  with
  | () ->
    let bound =
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    (fd, bound)
  | exception e ->
    Unix.close fd;
    raise e

let create ~role ~registry config =
  let config =
    {
      config with
      max_inflight = max 1 config.max_inflight;
      queue_depth = max 0 config.queue_depth;
    }
  in
  let listen_fd, port = listen ~host:config.host ~backlog:64 config.port in
  let http =
    match config.metrics_port with
    | None -> None
    | Some p -> (
      match listen ~host:config.host ~backlog:16 p with
      | bound -> Some bound
      | exception e ->
        Unix.close listen_fd;
        raise e)
  in
  (* Writes to vanished peers are routine for a server; they must
     surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let outcome_counter o =
    Metrics.counter registry ~labels:[ ("outcome", o) ] (role ^ ".requests")
  in
  let latency_hist v =
    Metrics.histogram registry ~labels:[ ("verb", v) ]
      (role ^ ".request.latency_ns")
  in
  (* Touch every outcome so STATS always shows all four. *)
  List.iter (fun o -> ignore (outcome_counter o)) outcomes;
  {
    role;
    config;
    registry;
    listen_fd;
    port;
    http_fd = Option.map fst http;
    http_port = Option.map snd http;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    job_done = Condition.create ();
    queue = Queue.create ();
    inflight = 0;
    phase = Running;
    shutdown_requested = Atomic.make false;
    handler = None;
    threads = [];
    domains = [];
    conns = [];
    started_ns = now_ns ();
    traces = Array.make (max 1 config.trace_ring) None;
    traces_lock = Mutex.create ();
    traces_next = 0;
    m_outcome = outcome_counter;
    m_latency = latency_hist;
    m_queue = Metrics.gauge registry (role ^ ".queue.depth");
    m_inflight = Metrics.gauge registry (role ^ ".inflight");
    m_conns = Metrics.counter registry (role ^ ".connections");
  }

let serve ?(domains = 1) t handler =
  t.handler <- Some handler;
  let accepter =
    Thread.create
      (fun () -> accept_loop t ~what:"protocol" t.listen_fd (serve_connection t))
      ()
  in
  let http =
    Option.map
      (fun fd ->
        Thread.create (fun () -> accept_loop t ~what:"metrics" fd (serve_http t)) ())
      t.http_fd
  in
  (* Worker [k] runs on domain [k mod domains]; domain 0 is this one. *)
  let domains = max 1 (min domains t.config.max_inflight) in
  let workers_on d =
    List.init
      ((t.config.max_inflight - d + domains - 1) / domains)
      (fun _ -> Thread.create worker_loop t)
  in
  t.domains <-
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> List.iter Thread.join (workers_on (i + 1))));
  t.threads <- (accepter :: Option.to_list http) @ workers_on 0

let wait (t : t) =
  while t.phase <> Stopped && not (Atomic.get t.shutdown_requested) do
    Thread.delay 0.05
  done

let stop (t : t) =
  Mutex.lock t.lock;
  let already = t.phase <> Running in
  if not already then t.phase <- Draining;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  if not already then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.http_fd;
    List.iter Thread.join t.threads;
    t.threads <- [];
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* Every admitted job has a reply now; unstick handlers blocked in
       read (shutdown interrupts a parked read; close would not) and
       let them run their cleanup.  Receive side only: a handler still
       flushing its last reply must get to finish the write.  Shutting
       down under the lock keeps us off descriptors a handler already
       closed. *)
    Mutex.lock t.lock;
    let conns = t.conns in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock t.lock;
    List.iter (fun (_, thread) -> Thread.join thread) conns;
    Option.iter (fun h -> h.drain ()) t.handler;
    Mutex.lock t.lock;
    set_gauges_locked t;
    t.phase <- Stopped;
    Condition.broadcast t.job_done;
    Mutex.unlock t.lock;
    Log.info (fun m ->
        m "%s drained: %s" t.role
          (String.concat ", "
             (List.map
                (fun (o, n) -> Printf.sprintf "%s=%d" o n)
                (status t).requests)))
  end
