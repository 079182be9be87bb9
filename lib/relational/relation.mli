(** Materialized relations: a schema plus a tuple array.  Intermediate
    results of the executor are relations; base tables add clustered pages
    and a page directory on top (see {!Table}). *)

type t

(** @raise Invalid_argument on an arity mismatch. *)
val make : Schema.t -> Tuple.t array -> t

val schema : t -> Schema.t

val tuples : t -> Tuple.t array

val cardinality : t -> int

val is_empty : t -> bool

(** [column t name] extracts one column.
    @raise Not_found for an unknown column. *)
val column : t -> string -> Value.t list

(** [sort_by t columns] sorts ascending by the given columns. *)
val sort_by : t -> string list -> t

(** Duplicate elimination. *)
val distinct : t -> t

val pp : Format.formatter -> t -> unit
