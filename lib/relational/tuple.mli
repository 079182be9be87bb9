(** Tuples: flat value arrays positioned by a {!Schema.t}. *)

type t

val of_list : Value.t list -> t

(** [init n f] is the tuple [f 0, ..., f (n - 1)]. *)
val init : int -> (int -> Value.t) -> t

val get : t -> int -> Value.t

val arity : t -> int

(** [project indices t] builds a narrower tuple from the selected
    positions. *)
val project : int array -> t -> t

val concat : t -> t -> t

val equal : t -> t -> bool

(** Lexicographic, via {!Value.compare}. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
