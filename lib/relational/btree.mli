(** An in-memory B+ tree with duplicate keys — the index structure
    behind the paper's storage ("B+ tree indexes are built on start,
    plabel and data", Section 4).

    Keys live only in internal nodes for routing; bindings sit in a
    linked chain of leaves, so a range scan is a descent plus a leaf
    walk.  Deletion is physical but does not rebalance (the workload is
    bulk-load-then-query; lazy deletion preserves correctness). *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Key : ORDERED) : sig
  type 'v t

  val create : unit -> 'v t

  (** Number of bindings (keys may repeat). *)
  val length : 'v t -> int

  val insert : 'v t -> Key.t -> 'v -> unit

  (** All values bound to the key, in insertion order. *)
  val find : 'v t -> Key.t -> 'v list

  val mem : 'v t -> Key.t -> bool

  (** [fold_range t ~lo ~hi ~init ~f] folds over bindings with
      [lo <= key <= hi] in key order; [None] bounds are infinite. *)
  val fold_range :
    'v t ->
    lo:Key.t option ->
    hi:Key.t option ->
    init:'a ->
    f:('a -> Key.t -> 'v -> 'a) ->
    'a

  val iter : 'v t -> f:(Key.t -> 'v -> unit) -> unit

  val to_list : 'v t -> (Key.t * 'v) list

  val min_binding : 'v t -> (Key.t * 'v) option

  (** [delete t ~eq k] removes the first binding of [k] whose value
      satisfies [eq]; returns whether a binding was removed. *)
  val delete : 'v t -> eq:('v -> bool) -> Key.t -> bool

  val of_seq : (Key.t * 'v) Seq.t -> 'v t

  (** Structural well-formedness (used by the property tests): sorted
      leaves, routing invariant, uniform leaf depth, intact chain. *)
  val check_invariants : 'v t -> bool
end
