(** D-label allocation for the update subsystem.

    D-labels tolerate updates because Definition 3.1 only compares
    positions — nothing requires them to be consecutive.  A fresh index
    is labeled densely (every start tag, end tag and text unit occupies
    one position), but deletions leave their positions behind and text
    units own positions that no relation row ever references, so gaps
    accumulate and inserts can be labeled without touching any existing
    label.  When a gap is exhausted, the enclosing range is renumbered
    with even spacing (see {!Update_engine}), in the spirit of the
    gapped/extensible ancestry labelings of Dahlgaard et al. and
    Fraigniaud & Korman.

    Positions are native ints throughout the relational layer; the
    scaling product below goes through {!Blas_label.Bignum} so that a
    huge gap times a slot index cannot overflow. *)

(* Spacing used when a full renumbering is unavoidable: each slot gets
   four positions of room, so the next insert at the same spot finds a
   gap instead of cascading into another renumbering. *)
let headroom = 4

(** [spread ~lo ~hi ~slots] — [slots] distinct positions strictly
    between [lo] and [hi], evenly spaced over the gap so that later
    inserts find sub-gaps on either side of every allocated position.
    @raise Invalid_argument when the gap holds fewer than [slots]
    positions or [slots] is negative. *)
let spread ~lo ~hi ~slots =
  if slots < 0 then invalid_arg "Gap_alloc.spread: negative slot count";
  let gap = hi - lo - 1 in
  if gap < slots then invalid_arg "Gap_alloc.spread: gap too small";
  if slots = 0 then [||]
  else
    let g = Blas_label.Bignum.of_int gap in
    Array.init slots (fun i ->
        let scaled =
          Blas_label.Bignum.div_int (Blas_label.Bignum.mul_int g i) slots
        in
        match Blas_label.Bignum.to_int_opt scaled with
        | Some offset -> lo + 1 + offset
        | None -> assert false (* scaled < gap <= max_int *))

(** [fresh ~slots] — positions for a full renumbering: slot [i] sits at
    [1 + headroom * i], leaving [headroom - 1] free positions after
    every label. *)
let fresh ~slots =
  if slots < 0 then invalid_arg "Gap_alloc.fresh: negative slot count";
  Array.init slots (fun i -> 1 + (headroom * i))
