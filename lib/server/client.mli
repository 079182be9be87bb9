(** The OCaml client for the wire protocol: one blocking connection,
    one request/reply exchange at a time.  {!send} and {!recv} are the
    two halves of an exchange, for a caller that waits on several
    connections at once (the router selects on their {!fd}s). *)

type t

(** ["host:port"] or bare ["port"]; the host defaults to 127.0.0.1.
    @raise Invalid_argument on malformed input. *)
val parse_endpoint : string -> string * int

(** @raise Unix.Unix_error when the server is unreachable. *)
val connect : ?host:string -> int -> t

val close : t -> unit

(** [with_client ?host port f] — {!connect}, run [f], {!close}. *)
val with_client : ?host:string -> int -> (t -> 'a) -> 'a

(** The server hung up (raised by any exchange). *)
exception Closed

(** [send_line t line] — send one raw line without awaiting a reply
    (header lines like [DEADLINE] carry no reply frame). *)
val send_line : t -> string -> unit

(** The connection's socket, to wait on before {!recv}. *)
val fd : t -> Unix.file_descr

(** [send ?deadline_ms ?headers t cmd] — write the [headers] lines, a
    [DEADLINE] header when [deadline_ms] is given, and [cmd], in one
    write; the reply is left for {!recv}. *)
val send :
  ?deadline_ms:int -> ?headers:Proto.command list -> t -> Proto.command -> unit

(** [recv t] — read the next reply frame.
    @raise Closed when the server hung up. *)
val recv : t -> Proto.reply

(** [raw t line] — send one raw request line, read one reply frame
    (the REPL path). *)
val raw : t -> string -> Proto.reply

(** [request ?deadline_ms t cmd] — one exchange ({!send}, then
    {!recv}); [deadline_ms] sends a [DEADLINE] header first. *)
val request : ?deadline_ms:int -> t -> Proto.command -> Proto.reply

val ping : t -> unit

val list_docs : t -> string list

(** The raw STATS payload (pretty-printed JSON). *)
val stats : t -> string

(** The METRICS payload: Prometheus text exposition, or the registry
    JSON with [~json:true]. *)
val metrics : ?json:bool -> t -> string

(** The STATS TIMESERIES payload (JSON, oldest snapshot first). *)
val timeseries : t -> string

(** [trace_get t id] — a recent trace by id ([ERR] when evicted or
    unknown). *)
val trace_get : t -> string -> Proto.reply

(** [hello t name] — the HELLO handshake: announce [name], return the
    peer's announced identity and its hosted document names. *)
val hello : t -> string -> string * string list

(** [~trace:true] sends a [TRACE] header first: the [OK] payload is
    then the JSON object [{trace_id; payload; trace}] instead of the
    plain answer text.  [~trace_id] fixes the id ([TRACE ID]);
    [~trace_bg] stores the trace server-side under the id while the
    reply payload stays plain ([TRACE BG] — the router's fan-out
    form). *)
val query :
  ?deadline_ms:int ->
  ?trace:bool ->
  ?trace_id:string ->
  ?trace_bg:string ->
  t ->
  doc:string ->
  translator:Blas.translator ->
  engine:Blas.engine ->
  string ->
  Proto.reply

val update :
  ?deadline_ms:int ->
  ?trace:bool ->
  ?trace_id:string ->
  ?trace_bg:string ->
  t ->
  doc:string ->
  Proto.edit ->
  Proto.reply

(** [updatex_reply reply] — an [UPDATEX] reply (see [Proto.Updatex])
    split into the ordinary UPDATE payload and the parsed §11
    invalidation record the server prefixed (router → replica fan-out
    material). *)
val updatex_reply :
  Proto.reply -> Proto.reply * Blas.Update.invalidation option

(** Debug servers only (see [allow_sleep]). *)
val sleep : ?deadline_ms:int -> t -> int -> Proto.reply

(** Polite hangup: QUIT, await BYE, close. *)
val quit : t -> unit

(** Request a server-side graceful shutdown, then close. *)
val shutdown : t -> unit
