(** A buffer pool: an LRU cache of fixed-size pages shared by the base
    tables of one storage instance, over a backing page store.  Tables
    request every page they touch; misses read the backing store and
    count as disk accesses — the cost the paper's evaluation appeals
    to.  {!flush} models the cold-cache protocol of Section 5.1.

    The pool caches whatever payload the backing hands out: encoded
    bytes from a database file, which readers select on without
    decoding ({!Codec.select}), or decoded rows from the in-memory page
    store ({!Page_store.memory}).  {!store} installs dirty payloads,
    and a full stripe really evicts, writing dirty pages back first.

    The pool is lock-striped and safe to share across query domains:
    each stripe owns a disjoint hash partition of the page keys with
    its own LRU list and mutex.  The default single stripe is one
    global, observationally sequential LRU. *)

type t

(** A page payload: encoded bytes (a database file's pages) or the
    decoded rows themselves (the in-memory page store). *)
type payload = Bytes of string | Rows of Tuple.t list

(** The page store under the pool: misses read through [back_read],
    dirty evictions and {!store_through} write through [back_write].
    [back_rows] says which payload the store holds — writers hand it
    the same kind. *)
type backing = {
  back_read : table:string -> page:int -> payload;
  back_write : table:string -> page:int -> payload -> unit;
  back_rows : bool;
}

(** [create ~capacity backing] — a single-stripe pool: one global LRU,
    observationally identical to the sequential pool.
    @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> backing -> t

(** [create_striped ~stripes ~capacity] — [capacity] pages split over
    [stripes] independently locked LRU partitions ([stripes] is clamped
    to [capacity]).
    @raise Invalid_argument if [capacity < 1] or [stripes < 1]. *)
val create_striped : stripes:int -> capacity:int -> backing -> t

val capacity : t -> int

(** Lock stripes in this pool. *)
val stripe_count : t -> int

(** Pages currently resident. *)
val resident : t -> int

(** Whether the backing store holds decoded rows rather than bytes. *)
val holds_rows : t -> bool

(** [get t ~table ~page] returns the page payload, reading it through
    the backing store on a miss (evicting, with write-back for dirty
    pages, when the stripe is full). *)
val get : t -> table:string -> page:int -> payload * [ `Hit | `Miss ]

(** [peek t ~table ~page] — the current payload without touching the
    LRU order or the statistics: the resident copy if any, else an
    uncached read of the backing store. *)
val peek : t -> table:string -> page:int -> payload

(** [store t ~table ~page data] installs a freshly written page payload
    as dirty; counted as one page written.  The payload reaches the
    backing store on eviction or {!flush_dirty}. *)
val store : t -> table:string -> page:int -> payload -> unit

(** [store_through t ~table ~page data] writes a page straight to the
    backing store, dropping any resident copy (the bulk loader's path);
    counted as one page written. *)
val store_through : t -> table:string -> page:int -> payload -> unit

(** Drop one page without write-back (it was freed or rewritten behind
    the pool's back). *)
val invalidate : t -> table:string -> page:int -> unit

(** Write back every dirty page, keeping it resident and clean (commit
    path: completes the backing store's write set). *)
val flush_dirty : t -> unit

(** Drop every dirty page without write-back (transaction abort). *)
val drop_dirty : t -> unit

(** Empties the pool; statistics are kept.  Dirty pages are written
    back through the backing store first. *)
val flush : t -> unit

(** Logical page requests. *)
val requests : t -> int

(** Physical page reads ("disk accesses"). *)
val misses : t -> int

(** Pages written by update operations. *)
val writes : t -> int

(** Evictions that wrote a dirty page back first (foreground write
    stalls). *)
val dirty_evictions : t -> int

val reset_stats : t -> unit

val pp : Format.formatter -> t -> unit
