(** Base tables: a relation stored in clustered order with secondary B+
    tree indexes, mirroring the paper's storage setup (Section 5.2.1):
    SP(plabel, start, end, level, data) clustered by {plabel, start} and
    SD(tag, start, end, level, data) clustered by {tag, start}, indexed
    on every queried attribute.

    Every access method charges {!Counters} with the tuples it fetches —
    the paper's "visited elements" / disk-access proxy. *)

type t

(** One resident directory entry of a disk-backed table: a data page in
    cluster order. *)
type dir_entry = {
  de_page : int;  (** file page id *)
  de_nrows : int;
  de_first : Tuple.t;  (** first tuple on the page (cluster order) *)
}

(** [create ?pool ?page_rows ~name ~schema ~cluster_key ~indexes tuples]
    builds a heap table: sorts the tuples by [cluster_key] and builds a
    B+ tree for every column in [indexes]; the cluster key's leading
    column always gets one.  With a [pool], every tuple fetch requests
    its page, charging misses as disk accesses; [page_rows] (default
    64) is the page size in tuples. *)
val create :
  ?pool:Buffer_pool.t ->
  ?page_rows:int ->
  name:string ->
  schema:Schema.t ->
  cluster_key:string list ->
  indexes:string list ->
  Tuple.t list ->
  t

(** [create_paged ~pool ~alloc ~free ~capacity ~name ~schema
    ~cluster_key ~dir ~indexes] assembles a disk-backed table from an
    already materialized layout (the database open path): [dir] is the
    clustered page directory, [indexes] the per-column paged indexes,
    [capacity] the page payload capacity in bytes.  Payloads are read
    through [pool] on demand and `Counters.page_reads` becomes measured
    I/O. *)
val create_paged :
  ?codec:Codec.format ->
  pool:Buffer_pool.t ->
  alloc:(unit -> int) ->
  free:(int -> unit) ->
  capacity:int ->
  name:string ->
  schema:Schema.t ->
  cluster_key:string list ->
  dir:dir_entry array ->
  indexes:(string * Paged_index.t) list ->
  unit ->
  t

(** The active page codec: the paged backing's format; heap tables are
    modelled, not encoded, so they report {!Codec.V1}. *)
val codec : t -> Codec.format

(** Average clustered rows per page under the active layout: the heap's
    modelled density, or the paged directory's measured one.  This is
    what the cost model prices a page read at — under a compressing
    codec it grows, and scans get cheaper. *)
val avg_page_rows : t -> int

(** Whether the table is disk-backed. *)
val is_paged : t -> bool

(** The disk layout of a paged table — directory plus per-index leaf
    metadata — for the catalog writer; [None] for heap tables. *)
val paged_layout :
  t -> (dir_entry array * (string * Paged_index.meta array) list) option

(** Every file page owned by a paged table (data pages and index
    leaves); [[]] for heap tables. *)
val owned_pages : t -> int list

(** The shared buffer pool, when disk modelling is on. *)
val pool : t -> Buffer_pool.t option

(** Pages occupied by the clustered tuples. *)
val page_count : t -> int

val name : t -> string

val schema : t -> Schema.t

val relation : t -> Relation.t

val cardinality : t -> int

val cluster_key : t -> string list

val has_index : t -> string -> bool

val indexed_columns : t -> string list

(** Full scan: reads every tuple, in clustered order. *)
val scan : t -> Counters.t -> Tuple.t list

(** Equality lookup through the index on [column]; rows come back in
    clustered order.  With a multi-domain [par] pool, the fetch is
    partitioned over page-aligned chunks (results and counter totals
    match the sequential fetch; page {e reads} can differ only through
    buffer-pool races with other domains).
    @raise Not_found if the column has no index. *)
val index_eq :
  t -> ?par:Blas_par.Pool.t -> Counters.t -> column:string -> Value.t -> Tuple.t list

(** In-place edits (the update subsystem): [apply_edits t counters
    ~deletes ~inserts] removes each tuple of [deletes] (matched by
    {!Tuple.equal}, one occurrence per listed tuple), inserts every
    tuple of [inserts] at its clustered position, and maintains the
    secondary indexes.  Every page holding an affected row is written
    through the buffer pool and every secondary index charges one
    descent per affected row, so updates are paged and counted like
    reads.  Returns the number of page writes.
    @raise Invalid_argument if some delete is not present. *)
val apply_edits :
  t -> Counters.t -> deletes:Tuple.t list -> inserts:Tuple.t list -> int

(** Range lookup [lo <= column <= hi] ([None] bounds are open).  With a
    multi-domain [par] pool, the fetch is partitioned over page-aligned
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
