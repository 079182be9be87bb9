(** A holistic twig join over {!Pattern} trees: TwigStack as Bruno,
    Koudas & Srivastava (SIGMOD 2002, Algorithm 2) formulate it, driven
    by [getNext] — the engine the paper uses as its second query
    engine.

    The algorithm runs in two phases:

    {b Phase 1 — getNext.}  Instead of merging all streams in global
    start order, [getNext] chooses the next stream to advance and
    {e skips} head elements that provably participate in no solution —
    an element of an internal node is advanced over while its interval
    ends before the latest child head begins ([nextR(q) < nextL(qmax)]),
    since sorted streams guarantee no entry of that child can fall
    inside it.  An element is pushed (and recorded as a candidate) only
    when its parent's stack is non-empty after popping closed intervals.
    For ancestor-descendant-only patterns every pushed element
    participates in a solution (the paper's optimality theorem); with
    child (exact-gap) edges the push set is a superset, exactly as in
    the original.  Skipping still reads each element, so the "visited
    elements" metric of the paper's figures is the total stream length.

    {b Phase 2 — semijoin passes.}  A bottom-up sweep keeps a candidate
    alive iff every pattern child has an alive candidate below it
    satisfying the edge's level gap; a top-down sweep keeps a candidate
    iff an alive parent candidate spans it.  For tree patterns the two
    passes leave exactly the elements that participate in at least one
    full embedding, so the output node's survivors are the query answer.
    Each sweep is a merge with stack depth bounded by the document
    height. *)

type stats = {
  visited : int;  (** total stream elements read *)
  candidates : int;  (** elements pushed in phase 1 *)
  results : int;
}

(* A pushed element; the semijoin passes toggle [alive] and use [mark]
   as scratch space. *)
type cand = { entry : Entry.t; mutable alive : bool; mutable mark : bool }

type node_state = {
  pattern : Pattern.node;
  mutable children : node_state list;
  mutable parent : node_state option;
  mutable cursor : int;
  mutable stack : Entry.t list;
  mutable pushed : cand list;  (* reverse start order *)
  mutable cands : cand array;  (* phase-1 survivors, sorted by start *)
}

let rec build (p : Pattern.node) =
  let st =
    {
      pattern = p;
      children = [];
      parent = None;
      cursor = 0;
      stack = [];
      pushed = [];
      cands = [||];
    }
  in
  st.children <-
    List.map
      (fun c ->
        let child = build c in
        child.parent <- Some st;
        child)
      p.children;
  st

(* ------------------------------------------------------------------ *)
(* Phase 1                                                            *)

let eof st = st.cursor >= Array.length st.pattern.Pattern.entries

let head st = st.pattern.Pattern.entries.(st.cursor)

let next_l st = if eof st then max_int else (head st).Entry.start

let next_r st = if eof st then max_int else (head st).Entry.fin

let advance st = st.cursor <- st.cursor + 1

let is_leaf st = st.children = []

(* Algorithm 2's getNext: returns the node whose head element should be
   processed next, or an exhausted node when a required subtree has run
   dry. *)
let rec get_next st =
  if is_leaf st then st
  else begin
    let rec check = function
      | [] -> None
      | c :: rest ->
        let n = get_next c in
        if n != c then Some n else check rest
    in
    match check st.children with
    | Some deeper -> deeper
    | None ->
      let qmin =
        List.fold_left
          (fun acc c -> if next_l c < next_l acc then c else acc)
          (List.hd st.children) (List.tl st.children)
      in
      let qmax =
        List.fold_left
          (fun acc c -> if next_l c > next_l acc then c else acc)
          (List.hd st.children) (List.tl st.children)
      in
      (* Skip head elements of st that end before qmax's head begins:
         no element of qmax's stream can fall inside them. *)
      while (not (eof st)) && next_r st < next_l qmax do
        advance st
      done;
      if (not (eof st)) && next_l st < next_l qmin then st else qmin
  end

let clean st upto =
  st.stack <- List.filter (fun (e : Entry.t) -> e.fin > upto) st.stack

let push st =
  let entry = head st in
  st.stack <- entry :: st.stack;
  st.pushed <- { entry; alive = true; mark = false } :: st.pushed;
  advance st

let rec nodes st = st :: List.concat_map nodes st.children

(* The main loop runs until every stream is exhausted: even after one
   node's stream ends, other nodes' later elements can still combine
   with its recorded candidates, and the semijoin passes need them. *)
let phase1 root =
  let all = nodes root in
  let exists_live () = List.exists (fun st -> not (eof st)) all in
  let earliest_live () =
    List.fold_left
      (fun acc st ->
        if eof st then acc
        else
          match acc with
          | Some best when next_l best <= next_l st -> acc
          | _ -> Some st)
      None all
  in
  let continue = ref true in
  while !continue && exists_live () do
    let q = get_next root in
    (* getNext's skipping may exhaust streams, including the one it
       returns; when a required subtree has run dry, fall back to the
       earliest live stream so its elements still reach the candidate
       sets (later elements can combine with already-recorded ones). *)
    let q = if eof q then earliest_live () else Some q in
    match q with
    | None -> continue := false
    | Some q -> (
      match q.parent with
      | None ->
        clean q (next_l q);
        push q
      | Some parent ->
        clean parent (next_l q);
        clean q (next_l q);
        if parent.stack <> [] then push q else advance q)
  done;
  (* Candidates were consed in start order, so reverse restores it. *)
  List.iter (fun st -> st.cands <- Array.of_list (List.rev st.pushed)) all

(* ------------------------------------------------------------------ *)
(* Phase 2                                                            *)

(* Sweeps parent intervals and child points in global start order,
   calling [visit] with the open-parent stack for every alive child
   candidate.  Both inputs are sorted by start. *)
let sweep (parents : cand array) (children : cand array) ~visit =
  let np = Array.length parents and nc = Array.length children in
  let stack = ref [] in
  let pi = ref 0 and ci = ref 0 in
  while !pi < np || !ci < nc do
    let next_parent =
      if !pi < np then Some parents.(!pi).entry.start else None
    in
    let next_child = if !ci < nc then Some children.(!ci).entry.start else None in
    let take_parent =
      match next_parent, next_child with
      | Some p, Some c -> p < c
      | Some _, None -> true
      | None, _ -> false
    in
    if take_parent then begin
      let p = parents.(!pi) in
      incr pi;
      if p.alive then begin
        stack := List.filter (fun (s : cand) -> s.entry.fin > p.entry.start) !stack;
        stack := p :: !stack
      end
    end
    else begin
      let c = children.(!ci) in
      incr ci;
      if c.alive then begin
        stack := List.filter (fun (s : cand) -> s.entry.fin > c.entry.start) !stack;
        visit !stack c
      end
    end
  done

(* Bottom-up: a candidate stays alive iff every pattern child has an
   alive candidate below it satisfying the gap. *)
let rec bottom_up (st : node_state) =
  List.iter bottom_up st.children;
  List.iter
    (fun (child : node_state) ->
      Array.iter (fun c -> c.mark <- false) st.cands;
      sweep st.cands child.cands ~visit:(fun open_parents c ->
          List.iter
            (fun (p : cand) ->
              if Pattern.gap_ok child.pattern.gap ~anc:p.entry ~desc:c.entry then
                p.mark <- true)
            open_parents);
      Array.iter (fun p -> if not p.mark then p.alive <- false) st.cands)
    st.children

(* Top-down: a candidate stays alive iff some alive parent candidate
   spans it with the right gap. *)
let rec top_down (st : node_state) =
  List.iter
    (fun (child : node_state) ->
      Array.iter (fun c -> c.mark <- false) child.cands;
      sweep st.cands child.cands ~visit:(fun open_parents c ->
          if
            List.exists
              (fun (p : cand) ->
                Pattern.gap_ok child.pattern.gap ~anc:p.entry ~desc:c.entry)
              open_parents
          then c.mark <- true);
      Array.iter (fun c -> if not c.mark then c.alive <- false) child.cands;
      top_down child)
    st.children

(* ------------------------------------------------------------------ *)

(** [run pattern] executes the twig join and returns the start positions
    of the output node's bindings (sorted, duplicate-free) plus
    statistics. *)
let run (pattern : Pattern.node) =
  let root = build pattern in
  phase1 root;
  bottom_up root;
  top_down root;
  let output =
    match List.find_opt (fun st -> st.pattern.Pattern.is_output) (nodes root) with
    | Some st -> st
    | None -> invalid_arg "Twig_stack.run: pattern has no output node"
  in
  let results =
    Array.to_list output.cands
    |> List.filter_map (fun c -> if c.alive then Some c.entry.Entry.start else None)
  in
  let stats =
    {
      visited = Pattern.visited_elements pattern;
      candidates =
        List.fold_left (fun acc st -> acc + Array.length st.cands) 0 (nodes root);
      results = List.length results;
    }
  in
  Twig_log.Log.debug (fun m ->
      m "twig join %s: visited=%d candidates=%d results=%d"
        pattern.Pattern.label stats.visited stats.candidates stats.results);
  (results, stats)
