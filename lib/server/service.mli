(** The hosted document collection behind the server: per-document
    reader–writer discipline (concurrent queries, exclusive updates)
    and shared per-document query cache.  Every entry point is safe to
    call from several domains at once.  The
    wire protocol minus the sockets — directly unit-testable. *)

type doc = { name : string; storage : Blas.Storage.t; lock : Rwlock.t }

type t

(** [create ?cache ?group_commit_ms docs] — host [docs]; the
    per-storage semantic query cache is enabled by default (a resident
    server is the repeated-workload case it exists for).  A positive
    [group_commit_ms] puts every writable disk-backed document into
    deferred-durability mode: UPDATEs arriving within the window share
    one WAL fsync (each reply still waits for its commit to be
    durable). *)
val create :
  ?cache:bool ->
  ?group_commit_ms:float ->
  (string * Blas.Storage.t) list ->
  t

val names : t -> string list

val find : t -> string -> doc option

(** Hosted documents, in load order. *)
val docs : t -> doc list

(** The QUERY reply body for a report — deterministic, so a server
    reply is byte-identical to a sequential in-process run. *)
val payload_of_report : Blas.report -> string

(** What the serving tier wants to know about a request beyond its
    reply — the slow log's raw material. *)
type info = {
  i_lock_wait_ns : int64;  (** time blocked on the document lock *)
  i_pages_read : int;  (** buffer-pool misses during the run *)
  i_cache : string;  (** whole-query memo outcome: hit / miss / off / n-a *)
  i_plan : string option;
      (** the [Auto2] pick ("Unfold/twig"); [None] under explicit
          translators *)
  i_est_cost : float option;  (** the pick's estimated cost *)
  i_actual_cost : float option;  (** measured cost of the executed plan *)
}

(** [query t ~token ~doc ~translator ~engine xpath] — run under the
    document's shared lock, cancelling cooperatively through [token];
    [Timeout] when the token fired. *)
val query :
  t ->
  token:Blas.Par.Token.t ->
  doc:string ->
  translator:Blas.translator ->
  engine:Blas.engine ->
  string ->
  Proto.reply

(** {!query} plus its {!info}; with an enabled [tracer] the lock wait,
    cache probe and pager I/O are recorded under the caller's open
    span. *)
val query_info :
  t ->
  token:Blas.Par.Token.t ->
  ?tracer:Blas_obs.Trace.t ->
  doc:string ->
  translator:Blas.translator ->
  engine:Blas.engine ->
  string ->
  Proto.reply * info

(** [update t ~doc edit] — apply one edit under the exclusive lock
    (cache invalidation rides on {!Blas.Update}). *)
val update : t -> doc:string -> Proto.edit -> Proto.reply

(** {!update} plus its {!info}; with an enabled [tracer] the lock wait,
    edit application and WAL I/O are recorded. *)
val update_info :
  t -> ?tracer:Blas_obs.Trace.t -> doc:string -> Proto.edit -> Proto.reply * info

(** {!update_info} plus — on success — the §11 precise invalidation
    record of the edit, which the router serializes into the UPDATEX
    reply and pushes to read replicas.  With group commit enabled, the
    durability wait happens after the write lock is released, so
    concurrent updates can batch their WAL fsyncs. *)
val update_full :
  t ->
  ?tracer:Blas_obs.Trace.t ->
  doc:string ->
  Proto.edit ->
  Proto.reply * info * Blas.Update.invalidation option

(** [invalidate t ~doc payload] — the INVAL verb: apply a serialized
    §11 invalidation (see {!Proto.invalidation_of_string}) to [doc]'s
    query cache under the exclusive lock. *)
val invalidate : t -> doc:string -> string -> Proto.reply

(** The LIST reply body: one hosted name per line. *)
val list_payload : t -> string

(** The per-document block of the STATS payload. *)
val docs_json : t -> Blas_obs.Json.t
