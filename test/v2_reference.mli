(** The two-pass v2 page encoder the one-pass builder
    ({!Blas_rel.Codec.pack_pages} under [V2]) replaced, kept as the
    reference its page cuts and bytes are checked against
    ([test_codec]). *)

(** [pack ~capacity ~fill rows] — the page cuts: each page the largest
    prefix of the remaining rows whose encoding fits [capacity * fill],
    at least one row a page.
    @raise Invalid_argument as [Codec.pack_pages] does: on a row whose
    page alone exceeds [capacity], or on ragged arities. *)
val pack :
  capacity:int -> fill:float -> Blas_rel.Tuple.t list -> Blas_rel.Tuple.t list list

(** One page's payload: each column priced again and written in the
    strategy that prices smallest. *)
val encode_page : Blas_rel.Tuple.t list -> string

(** One column's block under each strategy, and under the smallest. *)
val encode_int_delta : Blas_rel.Value.t array -> string

val encode_dict : Blas_rel.Value.t array -> string
val encode_raw : Blas_rel.Value.t array -> string
val encode_column : Blas_rel.Value.t array -> string

(** A dictionary entry's payload, built as a string. *)
val value_payload : Blas_rel.Value.t -> string
