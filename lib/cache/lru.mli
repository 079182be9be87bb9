(** A lock-striped, size-bounded cache with cost-driven admission and
    eviction.

    Keys hash to one of [stripes] independent segments, each guarded by
    its own mutex, so concurrent query domains contend only when they
    touch the same stripe.  Every entry carries an estimated [weight]
    (bytes) and a [benefit] score (the cost-model pages a hit saves);
    when a stripe exceeds its share of [capacity_bytes] the entry with
    the lowest [(benefit, last-use)] pair is evicted — recency breaks
    benefit ties, so the policy degrades to plain LRU when all entries
    claim the same benefit.  Entries wider than a whole stripe are never
    admitted. *)

type ('k, 'v) t

(** [create ~weight ()] — [weight v] estimates an entry's bytes;
    [stripes] (default 8) and [capacity_bytes] (default 16 MiB) bound
    the structure.  [stats] shares an external accounting record. *)
val create :
  ?stripes:int ->
  ?capacity_bytes:int ->
  ?stats:Stats.t ->
  weight:('v -> int) ->
  unit ->
  ('k, 'v) t

(** [find ?accept t k] — the cached value, refreshing its recency.
    Records a hit or miss; an entry [accept] (default: any) refuses is
    a miss and keeps its recency. *)
val find : ?accept:('v -> bool) -> ('k, 'v) t -> 'k -> 'v option

(** [mem t k] — like {!find} without touching recency or stats. *)
val mem : ('k, 'v) t -> 'k -> bool

(** [put t ?benefit k v] admits (or overwrites) an entry and evicts
    until the stripe fits its budget.  [benefit] defaults to 1;
    entries with [benefit <= 0] or wider than a stripe are rejected. *)
val put : ('k, 'v) t -> ?benefit:int -> 'k -> 'v -> unit

(** [remove t k] — drops the entry if present (counts as an
    invalidation). *)
val remove : ('k, 'v) t -> 'k -> unit

(** [filter_in_place t keep] removes every entry with [keep k v =
    false], counting removals as invalidations; returns how many were
    removed. *)
val filter_in_place : ('k, 'v) t -> ('k -> 'v -> bool) -> int

(** [clear t] empties the cache, counting entries as invalidations. *)
val clear : ('k, 'v) t -> unit

val length : ('k, 'v) t -> int

val bytes_used : ('k, 'v) t -> int

val stats : ('k, 'v) t -> Stats.t

(** [validate t] checks the internal accounting of every stripe (bytes
    = sum of entry weights, no negative budgets) — the multi-domain
    stress tests call this after hammering the cache concurrently.
    @raise Invalid_argument on a torn stripe. *)
val validate : ('k, 'v) t -> unit
