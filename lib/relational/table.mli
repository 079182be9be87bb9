(** Base tables: a relation stored in clustered order on the pages of a
    {!Page_store} with secondary B+-tree indexes ({!Paged_index}),
    mirroring the paper's storage setup (Section 5.2.1):
    SP(plabel, start, end, level, data) clustered by {plabel, start} and
    SD(tag, start, end, level, data) clustered by {tag, start}, indexed
    on every queried attribute.  In-memory storages and database files
    build the same pages; only the store under the pool differs.

    Every access method charges {!Counters} with the tuples it fetches —
    the paper's "visited elements" / disk-access proxy. *)

type t

(** One resident directory entry: a data page in cluster order. *)
type dir_entry = {
  de_page : int;  (** page id *)
  de_nrows : int;
  de_first : Tuple.t;  (** first tuple on the page (cluster order) *)
}

(** Default page occupancy of a bulk load (0.9): headroom for in-place
    edits. *)
val default_fill : float

(** [load ?fill store ~name ~schema ~cluster_key ~indexes tuples] — the
    one bulk loader: sorts the tuples by [cluster_key] (stably), cuts
    them into pages filled to [fill] of the store's capacity under its
    codec, and writes the data pages and then each index's leaves
    straight to [store].  Every column in [indexes] gets an index, and
    so does the cluster key's leading column.  Page writes are counted
    in the store's pool. *)
val load :
  ?fill:float ->
  Page_store.t ->
  name:string ->
  schema:Schema.t ->
  cluster_key:string list ->
  indexes:string list ->
  Tuple.t list ->
  t

(** [of_layout store ~name ~schema ~cluster_key ~dir ~indexes]
    assembles a table from an already materialized layout (the database
    open path): [dir] is the clustered page directory, [indexes] each
    indexed column's leaf directory.  Pages are read through the store's
    pool on demand. *)
val of_layout :
  Page_store.t ->
  name:string ->
  schema:Schema.t ->
  cluster_key:string list ->
  dir:dir_entry array ->
  indexes:(string * Paged_index.meta array) list ->
  t

(** The page store the table lives in. *)
val store : t -> Page_store.t

(** The page codec (the store's). *)
val codec : t -> Codec.format

(** Average clustered rows per page: the directory's measured density.
    This is what the cost model prices a page read at — under a
    compressing codec it grows, and scans get cheaper. *)
val avg_page_rows : t -> int

(** The page layout — directory plus per-index leaf metadata — for the
    catalog writer. *)
val layout : t -> dir_entry array * (string * Paged_index.meta array) list

(** Every page the table owns (data pages and index leaves). *)
val owned_pages : t -> int list

(** [drop t] frees every page the table owns; [t] must not be used
    afterwards. *)
val drop : t -> unit

(** Pages occupied by the clustered tuples. *)
val page_count : t -> int

val name : t -> string

val schema : t -> Schema.t

val relation : t -> Relation.t

val cardinality : t -> int

val cluster_key : t -> string list

val has_index : t -> string -> bool

(** Full scan: reads every tuple, in clustered order. *)
val scan : t -> Counters.t -> Tuple.t list

(** Equality lookup through the index on [column]; rows come back in
    clustered order.  With a multi-domain [par] pool, the page fetch is
    split into contiguous chunks (results and counter totals match the
    sequential fetch; page {e reads} can differ only through buffer-pool
    races with other domains).
    @raise Not_found if the column has no index. *)
val index_eq :
  t -> ?par:Blas_par.Pool.t -> Counters.t -> column:string -> Value.t -> Tuple.t list

(** In-place edits (the update subsystem): [apply_edits t counters
    ~deletes ~inserts] removes each tuple of [deletes] (matched by
    {!Tuple.equal}, one occurrence per listed tuple), inserts every
    tuple of [inserts] at its clustered position, and maintains the
    secondary indexes.  Only the pages holding an affected row are read
    and rewritten through the buffer pool (splitting on overflow,
    freeing on empty), and every secondary index charges one descent
    per affected row, so updates are paged and counted like reads.
    Returns the number of page writes.
    @raise Invalid_argument if some delete is not present. *)
val apply_edits :
  t -> Counters.t -> deletes:Tuple.t list -> inserts:Tuple.t list -> int

(** Range lookup [lo <= column <= hi] ([None] bounds are open).  With a
    multi-domain [par] pool, the page fetch is split into contiguous
    chunks.
    @raise Not_found if the column has no index. *)
val index_range :
  t ->
  ?par:Blas_par.Pool.t ->
  Counters.t ->
  column:string ->
  lo:Value.t option ->
  hi:Value.t option ->
  Tuple.t list
