(** The merge-based structural join (stack-tree algorithm of Al-Khalifa
    et al., ICDE 2002) used to execute D-joins.

    Both inputs are interval lists over the same document, so any two
    intervals are either nested or disjoint.  Sweeping both sides in
    [start] order while keeping the currently open ancestor intervals on
    a stack yields every (ancestor, descendant) pair in
    O(|anc| + |desc| + |output|), instead of the nested-loop join a naive
    engine would run.

    The ancestor side's [start], [end] and (under a level gap) [level]
    columns are gathered into int arrays once; the sweep reads an
    ancestor's [end] and [level] many times, and now reads them from
    those arrays, never from boxed values.  A descendant's [start] and
    [level] are read once each, so that side is walked in place.
    Inputs coming out of a clustered index scan are already in [start]
    order, so the join verifies sortedness in O(n) and only sorts
    (stably, preserving tie order) when the check fails.  The ancestor stack is an array of
    indices with a top — open intervals are nested, so their [end]s
    strictly decrease bottom-to-top and closing an interval is a pop —
    and output tuples accumulate in a preallocated, doubling buffer.
    An output tuple holds only the columns the plan keeps; it is the
    input tuple itself when those are exactly one side's columns. *)

type side = { start_col : int; end_col : int; level_col : int }

type gap = Any | Exact of int | Min of int

let int_at tuple col = Value.to_int (Tuple.get tuple col)

(* The ancestor side in [start] order: its tuples and their interval
   columns. *)
type arrays = {
  tuples : Tuple.t array;
  starts : int array;
  ends : int array;
  levels : int array;  (** empty unless a level gap reads them *)
}

(* O(n) sortedness check on [start]; the common case after a clustered
   index scan. *)
let rec ascending col prev = function
  | [] -> true
  | t :: rest ->
    let s = int_at t col in
    prev <= s && ascending col s rest

(* [tuples] in [start] order.  Stable, so tuples tied on [start] keep
   their input order — the order the sorting path has always
   produced. *)
let in_start_order col tuples =
  if ascending col min_int tuples then tuples
  else List.stable_sort (fun a b -> Int.compare (int_at a col) (int_at b col)) tuples

let gather side ~levels tuples =
  let tuples = Array.of_list (in_start_order side.start_col tuples) in
  let column c = Array.map (fun t -> int_at t c) tuples in
  {
    tuples;
    starts = column side.start_col;
    ends = column side.end_col;
    levels = (if levels then column side.level_col else [||]);
  }

(* Builds an output tuple from an (ancestor, descendant) pair: the
   columns [anc_out] of the first, then [desc_out] of the second. *)
let emitter ~anc_out ~desc_out ~anc_arity ~desc_arity =
  if Array.length anc_out = 0 && Tuple.is_identity desc_out desc_arity then
    fun _ d -> d
  else if Array.length desc_out = 0 && Tuple.is_identity anc_out anc_arity then
    fun a _ -> a
  else fun a d -> Tuple.concat_project anc_out a desc_out d

(* Sweeps the descendants [desc] (in start order) against [a].  The
   stack holds ancestors whose interval contains the sweep point; with
   nested-or-disjoint intervals every stack survivor at a descendant's
   start strictly contains that descendant, and closed intervals sit on
   top (ends decrease bottom-to-top), so expiring them is a pop.  A
   descendant's [start] and [level] are read once each, so that side is
   walked in place rather than gathered. *)
let sweep a desc desc_side ~gap ~emit =
  let na = Array.length a.tuples in
  match desc with
  | [] -> []
  | _ when na = 0 -> []
  | d0 :: _ ->
    let stack = Array.make na 0 in
    let top = ref 0 in
    let out = ref (Array.make 16 d0) in
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
    let ai = ref 0 in
    List.iter
      (fun d ->
        let dstart = int_at d desc_side.start_col in
        while !ai < na && a.starts.(!ai) < dstart do
          let astart = a.starts.(!ai) in
          while !top > 0 && a.ends.(stack.(!top - 1)) <= astart do
            decr top
          done;
          stack.(!top) <- !ai;
          incr top;
          incr ai
        done;
        while !top > 0 && a.ends.(stack.(!top - 1)) <= dstart do
          decr top
        done;
        if !top > 0 then begin
          let dlevel = if gap = Any then 0 else int_at d desc_side.level_col in
          (* Innermost ancestor first. *)
          for i = !top - 1 downto 0 do
            let k = stack.(i) in
            let keep =
              match gap with
              | Any -> true
              | Exact g -> dlevel = a.levels.(k) + g
              | Min g -> dlevel >= a.levels.(k) + g
            in
            if keep then push (emit a.tuples.(k) d)
          done
        end)
      desc;
    List.init !out_len (fun i -> !out.(i))

(** [pairs ~anc ~desc ~anc_side ~desc_side ~gap ~anc_out ~desc_out]
    returns, for every pair where the interval of [a] in [anc] strictly
    contains that of [d] in [desc] and the level gap holds, the tuple of
    [a]'s columns [anc_out] followed by [d]'s columns [desc_out].
    Inputs need not be sorted. *)
let pairs ~anc ~desc ~anc_side ~desc_side ~gap ~anc_out ~desc_out =
  match (anc, desc) with
  | [], _ | _, [] -> []
  | a0 :: _, d0 :: _ ->
    sweep
      (gather anc_side ~levels:(gap <> Any) anc)
      (in_start_order desc_side.start_col desc)
      desc_side ~gap
      ~emit:
        (emitter ~anc_out ~desc_out ~anc_arity:(Tuple.arity a0)
           ~desc_arity:(Tuple.arity d0))
