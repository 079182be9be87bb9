(** Attribute values of the relational substrate: NULL, native integers
    (D-label components), big integers (P-labels) and strings (tags and
    PCDATA).  Values are ordered within a type; the cross-type order
    exists only to make {!compare} total. *)

type t =
  | Null
  | Int of int
  | Big of Blas_label.Bignum.t
  | Str of string

val compare : t -> t -> int

val equal : t -> t -> bool

(** @raise Invalid_argument on non-integers. *)
val to_int : t -> int

(** SQL-literal rendering (strings quoted with [''] escaping). *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

val hash : t -> int
