(** The merge-based structural join (stack-tree algorithm of Al-Khalifa
    et al., ICDE 2002) used to execute D-joins.

    Both inputs are interval lists over the same document, so any two
    intervals are either nested or disjoint.  Sweeping both sides in
    [start] order while keeping the currently open ancestor intervals on
    a stack yields every (ancestor, descendant) pair in
    O(|anc| + |desc| + |output|), instead of the nested-loop join a naive
    engine would run.

    Inputs coming out of a clustered index scan are already in [start]
    order, so the join first verifies sortedness in O(n) and only sorts
    (stably, preserving tie order) when the check fails.  The sweep
    itself runs over arrays: the ancestor stack is an array with a top
    index — open intervals are nested, so their [end]s strictly decrease
    bottom-to-top and closing an interval is a pop from the top, not a
    list rebuild — and output tuples accumulate in a preallocated,
    doubling buffer instead of a consed list. *)

type side = { start_col : int; end_col : int }

let int_at tuple col = Value.to_int (Tuple.get tuple col)

(* O(n) sortedness check on [start]; the common case after a clustered
   index scan. *)
let sorted_on side arr =
  let n = Array.length arr in
  let ok = ref true in
  if n > 1 then begin
    let prev = ref (int_at arr.(0) side.start_col) in
    let i = ref 1 in
    while !ok && !i < n do
      let s = int_at arr.(!i) side.start_col in
      if s < !prev then ok := false
      else begin
        prev := s;
        incr i
      end
    done
  end;
  !ok

let to_sorted_array side tuples =
  let arr = Array.of_list tuples in
  if not (sorted_on side arr) then
    (* Stable, so tuples tied on [start] keep their input order — the
       order the sorting path has always produced. *)
    Array.stable_sort
      (fun a b -> Stdlib.compare (int_at a side.start_col) (int_at b side.start_col))
      arr;
  arr

(* Sweeps [desc] against [anc] (both sorted by start).  The stack
   holds ancestors whose interval contains the sweep point; with
   nested-or-disjoint intervals every stack survivor at a descendant's
   start strictly contains that descendant, and closed intervals sit on
   top (ends decrease bottom-to-top), so expiring them is a pop. *)
let sweep ~anc ~desc ~anc_side ~desc_side ~keep =
  let na = Array.length anc and nd = Array.length desc in
  if na = 0 || nd = 0 then []
  else begin
    let stack = Array.make na anc.(0) in
    let top = ref 0 in
    let out = ref (Array.make (max 16 nd) anc.(0)) in
    let out_len = ref 0 in
    let push v =
      if !out_len = Array.length !out then begin
        let bigger = Array.make (2 * Array.length !out) v in
        Array.blit !out 0 bigger 0 !out_len;
        out := bigger
      end;
      !out.(!out_len) <- v;
      incr out_len
    in
    let ai = ref 0 and di = ref 0 in
    while !di < nd do
      let d = desc.(!di) in
      let dstart = int_at d desc_side.start_col in
      if !ai < na && int_at anc.(!ai) anc_side.start_col < dstart then begin
        let a = anc.(!ai) in
        let astart = int_at a anc_side.start_col in
        while !top > 0 && int_at stack.(!top - 1) anc_side.end_col <= astart do
          decr top
        done;
        stack.(!top) <- a;
        incr top;
        incr ai
      end
      else begin
        while !top > 0 && int_at stack.(!top - 1) anc_side.end_col <= dstart do
          decr top
        done;
        (* Innermost ancestor first. *)
        for i = !top - 1 downto 0 do
          let a = stack.(i) in
          if keep a d then push (Tuple.concat a d)
        done;
        incr di
      end
    done;
    List.init !out_len (fun i -> !out.(i))
  end

(** [pairs ~anc ~desc ~anc_side ~desc_side keep] returns all
    concatenated tuples [a @ d] where the interval of [a] strictly
    contains the interval of [d] and [keep a d] holds (the level-gap
    filter).  Inputs need not be sorted. *)
let pairs ~anc ~desc ~anc_side ~desc_side keep =
  sweep
    ~anc:(to_sorted_array anc_side anc)
    ~desc:(to_sorted_array desc_side desc)
    ~anc_side ~desc_side ~keep
