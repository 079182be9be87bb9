(** The merge-based structural join (stack-tree algorithm of Al-Khalifa
    et al., ICDE 2002) used to execute D-joins.

    Both inputs are interval lists over the same document, so any two
    intervals are either nested or disjoint.  Sweeping both sides in
    [start] order while keeping the currently open ancestor intervals on
    a stack yields every (ancestor, descendant) pair in
    O(|anc| + |desc| + |output|), instead of the nested-loop join a naive
    engine would run.

    Each ancestor's [end] and (under a level gap) [level] are read
    once, when it opens, into its stack frame; the sweep reads them
    many times from there, never from boxed values.  The sweep reads
    each side's [start] once per tuple (the next ancestor's is kept
    while it waits).  Inputs coming out of a clustered index scan are
    already in [start] order, so the join verifies sortedness in O(n)
    and only sorts (stably, preserving tie order) when the check
    fails.  The
    open ancestors form a linked stack — open intervals are nested, so
    their [end]s strictly decrease bottom-to-top and closing an
    interval is a pop — and output tuples accumulate on a reversed
    list.  No array of tuples is built: an array longer than 256
    pointers is allocated in the major heap, and every young tuple it
    points to would be promoted at the next minor collection, so the
    query path keeps fresh tuples in lists.  An output tuple holds only
    the columns the plan keeps; it is the input tuple itself when
    those are exactly one side's columns. *)

type side = { start_col : int; end_col : int; level_col : int }

type gap = Any | Exact of int | Min of int

let int_at tuple col = Value.to_int (Tuple.get tuple col)

(* The open ancestors, innermost on top: each one's [end], its
   [level] (0 when no level gap reads it) and its tuple. *)
type stack =
  | Bottom
  | Open of { fin : int; level : int; tuple : Tuple.t; below : stack }

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

(* Builds an output tuple from an (ancestor, descendant) pair: the
   columns [anc_out] of the first, then [desc_out] of the second. *)
let emitter ~anc_out ~desc_out ~anc_arity ~desc_arity =
  if Array.length anc_out = 0 && Tuple.is_identity desc_out desc_arity then
    fun _ d -> d
  else if Array.length desc_out = 0 && Tuple.is_identity anc_out anc_arity then
    fun a _ -> a
  else fun a d -> Tuple.concat_project anc_out a desc_out d

(* Sweeps the descendants [desc] against the ancestors [anc], both in
   start order.  The stack holds ancestors whose interval contains the
   sweep point; with nested-or-disjoint intervals every stack survivor
   at a descendant's start strictly contains that descendant, and
   closed intervals sit on top (ends decrease bottom-to-top), so
   expiring them is a pop. *)
let sweep anc anc_side desc desc_side ~gap ~emit =
  let start_of side = function
    | t :: _ -> int_at t side.start_col
    | [] -> max_int
  in
  let level_of side t = if gap = Any then 0 else int_at t side.level_col in
  let rec close bound = function
    | Open o when o.fin <= bound -> close bound o.below
    | stack -> stack
  in
  (* Innermost ancestor first. *)
  let rec emit_all d dlevel out = function
    | Bottom -> out
    | Open o ->
      let keep =
        match gap with
        | Any -> true
        | Exact g -> dlevel = o.level + g
        | Min g -> dlevel >= o.level + g
      in
      emit_all d dlevel (if keep then emit o.tuple d :: out else out) o.below
  in
  let waiting = ref anc and next = ref (start_of anc_side anc) in
  let stack = ref Bottom and out = ref [] in
  List.iter
    (fun d ->
      let dstart = int_at d desc_side.start_col in
      while !next < dstart do
        match !waiting with
        | [] -> assert false
        | a :: rest ->
          stack :=
            Open
              {
                fin = int_at a anc_side.end_col;
                level = level_of anc_side a;
                tuple = a;
                below = close !next !stack;
              };
          waiting := rest;
          next := start_of anc_side rest
      done;
      stack := close dstart !stack;
      match !stack with
      | Bottom -> ()
      | top -> out := emit_all d (level_of desc_side d) !out top)
    desc;
  List.rev !out

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
      (in_start_order anc_side.start_col anc)
      anc_side
      (in_start_order desc_side.start_col desc)
      desc_side ~gap
      ~emit:
        (emitter ~anc_out ~desc_out ~anc_arity:(Tuple.arity a0)
           ~desc_arity:(Tuple.arity d0))
