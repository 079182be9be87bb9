(** Base tables: a relation stored in clustered order on the pages of a
    {!Page_store}, mirroring the paper's storage setup (Section 5.2.1):
    SP(plabel, start, end, level, data) clustered by {plabel, start} and
    SD(tag, start, end, level, data) clustered by {tag, start}.  The
    resident page directory is the only index: it serves equality and
    range selections on the leading cluster-key column, the only
    selections the generated plans make.  In-memory storages and
    database files build the same pages; only the store under the pool
    differs.

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

(** [load ?fill store ~name ~schema ~cluster_key tuples] — the one bulk
    loader: checks in one linear pass that the tuples come in
    [cluster_key] order, sorts them (stably) only if they do not, cuts
    them into pages filled to [fill] of the store's capacity under its
    codec, and writes each page straight to [store] as it is cut, in
    cluster order; a v2 page is priced once and written from that
    pricing.  Page writes are counted in the store's pool. *)
val load :
  ?fill:float ->
  Page_store.t ->
  name:string ->
  schema:Schema.t ->
  cluster_key:string list ->
  Tuple.t list ->
  t

(** [of_layout store ~name ~schema ~cluster_key ~dir] assembles a table
    from its clustered page directory (the database open path).  Pages
    are read through the store's pool on demand. *)
val of_layout :
  Page_store.t ->
  name:string ->
  schema:Schema.t ->
  cluster_key:string list ->
  dir:dir_entry array ->
  t

(** The page store the table lives in. *)
val store : t -> Page_store.t

(** The page codec (the store's). *)
val codec : t -> Codec.format

(** Average clustered rows per page: the directory's measured density.
    This is what the cost model prices a page read at — under a
    compressing codec it grows, and scans get cheaper. *)
val avg_page_rows : t -> int

(** The clustered page directory, for the catalog writer. *)
val directory : t -> dir_entry array

(** [drop t] frees every data page; [t] must not be used afterwards. *)
val drop : t -> unit

(** Pages occupied by the clustered tuples. *)
val page_count : t -> int

val name : t -> string

val schema : t -> Schema.t

(** The clustered tuples in order, read without charging anyone or
    disturbing the pool (an export path, not an access method). *)
val rows : t -> Tuple.t list

(** {!rows} as a relation. *)
val relation : t -> Relation.t

val cardinality : t -> int

val cluster_key : t -> string list

(** The access methods below return rows holding only the columns
    named in [cols] (in that order; default every column).  Under a
    store of bytes only those columns are decoded, and only at the rows
    that pass the selection; the in-memory store projects its rows, and
    shares a row whose projection is the identity.  Counters charge
    the rows and pages fetched, whatever the columns. *)

(** Full scan: reads every tuple, in clustered order. *)
val scan : ?cols:string list -> t -> Counters.t -> Tuple.t list

(** Equality lookup on the leading cluster-key [column], through the
    page directory: one index seek, then only the pages of the selected
    run (and at most one page before it, whose tail may hold the first
    matching rows).  Rows come back in clustered order.
    @raise Not_found if [column] does not lead the cluster key. *)
val index_eq :
  ?cols:string list -> t -> Counters.t -> column:string -> Value.t -> Tuple.t list

(** In-place edits (the update subsystem): [apply_edits t counters
    ~deletes ~inserts] removes each tuple of [deletes] (matched by
    {!Tuple.equal}, one occurrence per listed tuple), inserts every
    tuple of [inserts] at its clustered position.  Only the pages
    holding an affected row are read and rewritten through the buffer
    pool (splitting on overflow, freeing on empty), so updates are paged
    and counted like reads.  Returns the number of page writes.
    @raise Invalid_argument if some delete is not present. *)
val apply_edits :
  t -> Counters.t -> deletes:Tuple.t list -> inserts:Tuple.t list -> int

(** Range lookup [lo <= column <= hi] ([None] bounds are open) on the
    leading cluster-key [column], read like {!index_eq}.
    @raise Not_found if [column] does not lead the cluster key. *)
val index_range :
  ?cols:string list ->
  t ->
  Counters.t ->
  column:string ->
  lo:Value.t option ->
  hi:Value.t option ->
  Tuple.t list
