(** Shared hit/miss/size accounting for the cache structures.

    One {!t} is attached to each {!Lru}; all fields are atomics, so
    concurrent query domains can record without a lock.
    {!snapshot} reads a consistent-enough point-in-time copy (each field
    individually atomic — exactness across fields is not needed for
    reporting), and {!diff} turns two snapshots into a per-run delta. *)

type t

(** A plain-record copy of the counters. *)
type snapshot = {
  hits : int;
  containment_hits : int;
      (** always 0: lookups are exact.  Kept so readers and exports of
          the snapshot keep their shape. *)
  misses : int;
  inserts : int;
  evictions : int;  (** removed by the size bound *)
  invalidations : int;  (** removed by an update *)
  entries : int;  (** live entries (gauge) *)
  bytes : int;  (** estimated live bytes (gauge) *)
}

val create : unit -> t

val hit : t -> unit

val miss : t -> unit

(** [insert t ~bytes] records an admitted entry of estimated [bytes]. *)
val insert : t -> bytes:int -> unit

(** [evict t ~bytes] / [invalidate t ~bytes] record a removal. *)
val evict : t -> bytes:int -> unit

val invalidate : t -> bytes:int -> unit

(** [replace t ~old_bytes ~bytes] records overwriting an entry in
    place (entry count unchanged). *)
val replace : t -> old_bytes:int -> bytes:int -> unit

val snapshot : t -> snapshot

val zero : snapshot

(** [diff ~before ~after] — monotone counters subtract; the [entries]
    and [bytes] gauges keep their [after] values. *)
val diff : before:snapshot -> after:snapshot -> snapshot

(** Fieldwise sum (gauges included) — for aggregating several caches. *)
val sum : snapshot -> snapshot -> snapshot

(** The snapshot as named integers, in declaration order — for
    exporters (wire formats, JSON) that must not silently drop a
    field. *)
val fields : snapshot -> (string * int) list

(** Hits over lookups; 0 when no lookups. *)
val hit_rate : snapshot -> float

val pp : Format.formatter -> snapshot -> unit
