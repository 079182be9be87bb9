(** EXPLAIN ANALYZE: an annotated operator tree with actual row counts,
    elapsed time and I/O charges per executed operator, plus the
    {!Collector} that builds such trees from recursive evaluators. *)

type stats = {
  read : int;  (** base-table tuples / stream elements fetched *)
  seeks : int;  (** page-directory descents *)
  page_requests : int;  (** buffer-pool page requests *)
  page_reads : int;  (** buffer-pool misses — pages read from the store *)
}

val zero_stats : stats

val add_stats : stats -> stats -> stats

val sub_stats : stats -> stats -> stats

type node = {
  label : string;  (** operator description, one line *)
  kind : string;  (** e.g. "access", "djoin", "stream", "phase", "query" *)
  rows : int;  (** actual output rows / entries *)
  self : stats;  (** charges by this operator itself, children excluded *)
  elapsed_ns : int64;  (** cumulative elapsed, children included *)
  children : node list;
}

val make :
  label:string ->
  kind:string ->
  rows:int ->
  ?self:stats ->
  ?elapsed_ns:int64 ->
  node list ->
  node

val fold : ('a -> node -> 'a) -> 'a -> node -> 'a

(** Sum of [self] over the whole tree — reconciles exactly with the
    run's global counters. *)
val total_stats : node -> stats

val total_read : node -> int

(** Sum of [rows] over nodes of one [kind]. *)
val total_rows_of_kind : string -> node -> int

(** Annotated plan tree with box-drawing connectors. *)
val pp : Format.formatter -> node -> unit

val to_string : node -> string

val to_json : node -> Json.t

module Collector : sig
  type t

  (** [create ~snapshot] — [snapshot] reads the engine's counters;
      {!wrap} charges each node with the delta observed around it. *)
  val create : snapshot:(unit -> stats) -> t

  (** [wrap t ~kind ~label ~rows f] runs [f], records a node whose
      children are the nodes wrapped inside [f], whose [self] stats are
      this node's own snapshot delta, and whose row count is [rows]
      applied to [f]'s result. *)
  val wrap :
    t -> kind:string -> label:string -> rows:('a -> int) -> (unit -> 'a) -> 'a

  (** [attach t node] adds an externally built node as a child of the
      frame currently open. *)
  val attach : t -> node -> unit

  (** Completed top-level nodes, oldest first.
      @raise Invalid_argument while frames are still open. *)
  val roots : t -> node list
end
