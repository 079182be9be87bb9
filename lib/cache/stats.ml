(** Shared hit/miss/size accounting for the cache structures.  All
    fields are atomics so concurrent query domains record without a
    lock; see the interface for the reporting contract. *)

type t = {
  a_hits : int Atomic.t;
  a_misses : int Atomic.t;
  a_inserts : int Atomic.t;
  a_evictions : int Atomic.t;
  a_invalidations : int Atomic.t;
  a_entries : int Atomic.t;
  a_bytes : int Atomic.t;
}

type snapshot = {
  hits : int;
  containment_hits : int;
  misses : int;
  inserts : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes : int;
}

let create () =
  {
    a_hits = Atomic.make 0;
    a_misses = Atomic.make 0;
    a_inserts = Atomic.make 0;
    a_evictions = Atomic.make 0;
    a_invalidations = Atomic.make 0;
    a_entries = Atomic.make 0;
    a_bytes = Atomic.make 0;
  }

let bump a n = ignore (Atomic.fetch_and_add a n)

let hit t = bump t.a_hits 1

let miss t = bump t.a_misses 1

let insert t ~bytes =
  bump t.a_inserts 1;
  bump t.a_entries 1;
  bump t.a_bytes bytes

let evict t ~bytes =
  bump t.a_evictions 1;
  bump t.a_entries (-1);
  bump t.a_bytes (-bytes)

let invalidate t ~bytes =
  bump t.a_invalidations 1;
  bump t.a_entries (-1);
  bump t.a_bytes (-bytes)

let replace t ~old_bytes ~bytes =
  bump t.a_inserts 1;
  bump t.a_bytes (bytes - old_bytes)

let snapshot t =
  {
    hits = Atomic.get t.a_hits;
    containment_hits = 0;
    misses = Atomic.get t.a_misses;
    inserts = Atomic.get t.a_inserts;
    evictions = Atomic.get t.a_evictions;
    invalidations = Atomic.get t.a_invalidations;
    entries = Atomic.get t.a_entries;
    bytes = Atomic.get t.a_bytes;
  }

let zero =
  {
    hits = 0;
    containment_hits = 0;
    misses = 0;
    inserts = 0;
    evictions = 0;
    invalidations = 0;
    entries = 0;
    bytes = 0;
  }

let diff ~before ~after =
  {
    hits = after.hits - before.hits;
    containment_hits = 0;
    misses = after.misses - before.misses;
    inserts = after.inserts - before.inserts;
    evictions = after.evictions - before.evictions;
    invalidations = after.invalidations - before.invalidations;
    entries = after.entries;
    bytes = after.bytes;
  }

let sum a b =
  {
    hits = a.hits + b.hits;
    containment_hits = 0;
    misses = a.misses + b.misses;
    inserts = a.inserts + b.inserts;
    evictions = a.evictions + b.evictions;
    invalidations = a.invalidations + b.invalidations;
    entries = a.entries + b.entries;
    bytes = a.bytes + b.bytes;
  }

(** [fields s] — the snapshot as named integers, in declaration order.
    Exporters (the server's STATS command, JSON dumps) iterate this
    instead of pattern-matching the record, so a new field can never be
    silently dropped from a wire format. *)
let fields s =
  [
    ("hits", s.hits);
    ("containment_hits", s.containment_hits);
    ("misses", s.misses);
    ("inserts", s.inserts);
    ("evictions", s.evictions);
    ("invalidations", s.invalidations);
    ("entries", s.entries);
    ("bytes", s.bytes);
  ]

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0. else float_of_int s.hits /. float_of_int lookups

let pp ppf s =
  Format.fprintf ppf
    "%d hits, %d misses, rate %.1f%%; %d entries, %d bytes, %d evicted, %d \
     invalidated"
    s.hits s.misses (100. *. hit_rate s) s.entries s.bytes
    s.evictions s.invalidations
