(** The merge-based structural join (stack-tree algorithm of Al-Khalifa
    et al., ICDE 2002) used to execute D-joins in
    O(|anc| + |desc| + |output|).  Inputs are interval lists over the
    same document, so any two intervals are nested or disjoint.

    Already-sorted inputs (the clustered-index common case) are detected
    in O(n) and not re-sorted; the sweep uses an array-backed ancestor
    stack and a preallocated output buffer. *)

(** Column positions of the interval endpoints within each side's
    tuples. *)
type side = { start_col : int; end_col : int }

(** [pairs ~anc ~desc ~anc_side ~desc_side keep] returns all
    concatenated tuples [a @ d] where [a]'s interval strictly contains
    [d]'s and [keep a d] holds (the level-gap filter).  Inputs need not
    be sorted. *)
val pairs :
  anc:Tuple.t list ->
  desc:Tuple.t list ->
  anc_side:side ->
  desc_side:side ->
  (Tuple.t -> Tuple.t -> bool) ->
  Tuple.t list
