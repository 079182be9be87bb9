(** D-label allocation for the update subsystem: carve positions for an
    inserted subtree out of the gap between its neighbours' labels, or
    renumber a range with even spacing when the gap is exhausted.
    Definition 3.1 only compares positions, so sparse labels are as
    good as dense ones. *)

(** [spread ~lo ~hi ~slots] — [slots] distinct, strictly increasing
    positions strictly between [lo] and [hi], evenly spaced.
    @raise Invalid_argument when the gap holds fewer than [slots]
    positions. *)
val spread : lo:int -> hi:int -> slots:int -> int array

(** [fresh ~slots] — positions for a full renumbering, four apart,
    starting at 1, so the next insert at any slot finds a gap. *)
val fresh : slots:int -> int array
