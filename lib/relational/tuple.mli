(** Tuples: flat value arrays positioned by a {!Schema.t}. *)

type t

val of_list : Value.t list -> t

val get : t -> int -> Value.t

val arity : t -> int

(** [of_array values] is the tuple of [values], without a copy: the
    caller must not mutate [values] afterwards. *)
val of_array : Value.t array -> t

(** [project indices t] builds a narrower tuple from the selected
    positions. *)
val project : int array -> t -> t

(** [is_identity indices arity] — whether [project indices] maps every
    tuple of [arity] to itself, so a caller may share the tuple. *)
val is_identity : int array -> int -> bool

(** [concat_project ia a id d] is [concat (project ia a) (project id d)]
    in one allocation. *)
val concat_project : int array -> t -> int array -> t -> t

val concat : t -> t -> t

val equal : t -> t -> bool

(** Lexicographic, via {!Value.compare}. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
