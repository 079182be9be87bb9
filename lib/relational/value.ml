(** Attribute values of the relational substrate.

    The storage schema of the paper (Section 5.2.1) needs integers
    (D-label components), arbitrary-precision integers (P-labels), and
    strings (tags and PCDATA), plus NULL for elements without text.
    Values are ordered within a type; columns are homogeneous, and the
    cross-type order (Null first, then ints, big integers, strings) only
    exists so that [compare] is total. *)

type t =
  | Null
  | Int of int
  | Big of Blas_label.Bignum.t
  | Str of string

let rank = function Null -> 0 | Int _ -> 1 | Big _ -> 2 | Str _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Big x, Big y -> Blas_label.Bignum.compare x y
  | Str x, Str y -> String.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let to_int = function
  | Int i -> i
  | v ->
    invalid_arg
      (Printf.sprintf "Value.to_int: not an integer (%s)"
         (match v with
         | Null -> "NULL"
         | Str s -> Printf.sprintf "%S" s
         | Big _ -> "big integer"
         | Int _ -> assert false))

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Big b -> Blas_label.Bignum.to_string b
  | Str s -> Printf.sprintf "'%s'" (String.concat "''" (String.split_on_char '\'' s))

let pp ppf v = Format.pp_print_string ppf (to_string v)

let hash = function
  | Null -> 0
  | Int i -> Hashtbl.hash i
  | Big b -> Blas_label.Bignum.hash b
  | Str s -> Hashtbl.hash s
