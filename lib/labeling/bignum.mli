(** Compact arbitrary-precision natural numbers.

    P-label domains need [m >= (n+1)^h] (Section 3.2.2), which exceeds
    63-bit integers for deep documents with many tags, so P-label
    endpoints are arbitrary-precision.  Values stay tiny in practice (a
    handful of base-2^30 limbs).

    All operations are total on naturals except {!sub}, which raises
    when the result would be negative, and the division helpers, which
    validate their divisors. *)

type t

val zero : t

val one : t

val is_zero : t -> bool

(** @raise Invalid_argument on a negative argument. *)
val of_int : int -> t

(** [None] when the value exceeds [max_int]. *)
val to_int_opt : t -> int option

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val add : t -> t -> t

(** @raise Invalid_argument when the result would be negative. *)
val sub : t -> t -> t

val succ : t -> t

(** @raise Invalid_argument on zero. *)
val pred : t -> t

val mul : t -> t -> t

(** @raise Invalid_argument on a negative multiplier. *)
val mul_int : t -> int -> t

(** [divmod_int a k] is [(a / k, a mod k)].
    @raise Invalid_argument unless [1 <= k < 2^30]. *)
val divmod_int : t -> int -> t * int

val div_int : t -> int -> t

(** Division that checks there is no remainder — an invariant of every
    division in the P-labeling algorithms.
    @raise Invalid_argument on a remainder. *)
val div_int_exact : t -> int -> t

(** [pow_int b e] is [b ^ e] for small non-negative [b] and [e]. *)
val pow_int : int -> int -> t

val to_string : t -> string

(** [decimal_length a] is [String.length (to_string a)], computed
    without building the string. *)
val decimal_length : t -> int

(** @raise Invalid_argument on a non-digit. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

val min : t -> t -> t

val max : t -> t -> t
