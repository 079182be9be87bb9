(** The merge-based structural join (stack-tree algorithm of Al-Khalifa
    et al., ICDE 2002) used to execute D-joins in
    O(|anc| + |desc| + |output|).  Inputs are interval lists over the
    same document, so any two intervals are nested or disjoint.

    An ancestor's [end] and (under a level gap) [level] are read once,
    into its stack frame, and the sweep and the level-gap test run on
    those.  Already-sorted inputs (the clustered-index common case) are
    detected in O(n) and not re-sorted.  Output tuples carry only the
    columns asked for and come back as a list; the join builds no array
    of tuples (one longer than 256 pointers lives in the major heap and
    promotes every fresh tuple it holds). *)

(** Column positions of the interval endpoints and the level within
    each side's tuples.  [end_col] is read on the ancestor side only —
    intervals nest or are disjoint, so an ancestor open at a
    descendant's start contains it — and [level_col] only under a level
    gap; an unread position may be [-1]. *)
type side = { start_col : int; end_col : int; level_col : int }

(** The level-gap filter on a pair: none, [desc level = anc level + k]
    ([Exact k]) or [desc level >= anc level + k] ([Min k]). *)
type gap = Any | Exact of int | Min of int

(** [pairs ~anc ~desc ~anc_side ~desc_side ~gap ~anc_out ~desc_out]
    returns one tuple per pair [(a, d)] where [a]'s interval strictly
    contains [d]'s and [gap] holds: [a]'s columns at [anc_out], then
    [d]'s at [desc_out].  When those are exactly one side's columns in
    place, the output is that input tuple, shared.  Inputs need not be
    sorted. *)
val pairs :
  anc:Tuple.t list ->
  desc:Tuple.t list ->
  anc_side:side ->
  desc_side:side ->
  gap:gap ->
  anc_out:int array ->
  desc_out:int array ->
  Tuple.t list
