(** The labeled document model shared by the naive evaluator, the index
    generator and the query engines: every element node annotated with
    its D-label, source path and text value.

    [data] is the concatenation of the text units directly under the
    node ([None] when there are none) — the "data" attribute the paper's
    index generator stores "if there is any (otherwise, data is set to
    null)". *)

type node = {
  tag : string;
  data : string option;
  start : int;
  fin : int;
  level : int;
  source_path : string list;  (** root tag first, this node's tag last *)
  children : node list;  (** element children only, in document order *)
}

type t = {
  root : node;
  all : node list;  (** every element node in document order *)
  by_start : node array array;
      (** the same nodes cut into runs, for binary search: an edit
          copies the run directory and the runs it touches *)
  guide : Blas_xml.Dataguide.t;
}

(* Nodes per run of [by_start]; a rebuilt run may hold from half as
   many to this many. *)
let run_length = 256

(* [split nodes] — [nodes] cut into runs of at most [run_length] and,
   when there are more than that, at least half as many; none empty. *)
let split nodes =
  let n = Array.length nodes in
  let k = (n + run_length - 1) / run_length in
  Array.init k (fun p ->
      let a = p * n / k in
      Array.sub nodes a (((p + 1) * n / k) - a))

(* Every node of the tree under [root], in preorder — which is start
   order, because D-label intervals nest and children are listed in
   document order. *)
let preorder root =
  let rec go acc n = List.fold_left go (n :: acc) n.children in
  List.rev (go [] root)

(** [of_root root] — the document model around an already labeled
    root: every node in start order and the DataGuide of their source
    paths. *)
let of_root root =
  let all = preorder root in
  let guide =
    List.fold_left
      (fun g n -> Blas_xml.Dataguide.add_path g n.source_path)
      Blas_xml.Dataguide.empty all
  in
  { root; all; by_start = split (Array.of_list all); guide }

(** [of_tree tree] labels positions exactly like {!Blas_label.Dlabel}:
    every start tag, end tag and text unit occupies one position,
    1-based; the root is at level 1. *)
let of_tree tree =
  let pos = ref 0 in
  let next () =
    incr pos;
    !pos
  in
  let rec go level path t =
    match t with
    | Blas_xml.Types.Content _ ->
      ignore (next ());
      None
    | Blas_xml.Types.Element (tag, kids) ->
      let start = next () in
      let path = tag :: path in
      let data = ref [] in
      let children =
        List.filter_map
          (fun kid ->
            (match kid with
            | Blas_xml.Types.Content s -> data := s :: !data
            | Blas_xml.Types.Element _ -> ());
            go (level + 1) path kid)
          kids
      in
      let fin = next () in
      let data =
        match List.rev !data with [] -> None | parts -> Some (String.concat "" parts)
      in
      Some { tag; data; start; fin; level; source_path = List.rev path; children }
  in
  match go 1 [] tree with
  | None -> invalid_arg "Doc.of_tree: root must be an element"
  | Some root -> of_root root

let node_count t =
  Array.fold_left (fun n run -> n + Array.length run) 0 t.by_start

(** All strict descendants of [node], in document order. *)
let descendants node =
  let rec go acc n = List.fold_left (fun acc c -> go (c :: acc) c) acc n.children in
  List.rev (go [] node)

(** [data_or_empty n] is the node's text value, with [None] read as "". *)
let data_or_empty node = Option.value node.data ~default:""

(* The first index of [arr] whose node starts at or after [start]. *)
let lower_bound arr start =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).start < start then lo := mid + 1 else hi := mid
  done;
  !lo

(* [seek runs start] — [(r, i)]: the first node starting at or after
   [start] is [runs.(r).(i)]; past the end, [i] is the last run's
   length. *)
let seek runs start =
  let lo = ref 0 and hi = ref (Array.length runs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let run = runs.(mid) in
    if run.(Array.length run - 1).start < start then lo := mid + 1 else hi := mid
  done;
  (!lo, lower_bound runs.(!lo) start)

(** [find_by_start t start] — the element node whose start tag sits at
    position [start], if any (binary search over document order). *)
let find_by_start t start =
  let r, i = seek t.by_start start in
  let run = t.by_start.(r) in
  if i < Array.length run && run.(i).start = start then Some run.(i) else None

let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l)

(** [replace t ~at ~by ?changed ()] — the model after an edit that gives
    node [at] the new record [by] (same start) and, if [changed] is
    [(lo, hi)], replaces the nodes starting in [lo..hi] — a range inside
    [at]'s interval — by [by]'s nodes starting there.

    Only [at]'s ancestors get new records: every other node, the old
    model and its runs stay as they were.  [by_start] gets a new run
    directory, rebuilt runs around the changed range and copies of the
    runs holding an ancestor; [all] is rebuilt up to the changed range
    and shared after it; the guide recounts just the nodes that left or
    arrived. *)
let replace t ~at ~by ?changed () =
  if by.start <> at.start then invalid_arg "Doc.replace: start moved";
  let spine = ref [] in
  let rec copy n =
    if n.start = at.start then by
    else begin
      let rec swap = function
        | [] -> invalid_arg "Doc.replace: node not in the document"
        | c :: rest when c.start <= at.start && at.start <= c.fin -> copy c :: rest
        | c :: rest -> c :: swap rest
      in
      let n = { n with children = swap n.children } in
      spine := n :: !spine;
      n
    end
  in
  let root = copy t.root in
  let lo, hi = Option.value changed ~default:(at.start + 1, at.start) in
  (* The nodes under [n] starting in [lo..hi], in start order. *)
  let within n =
    let rec go acc n =
      if n.fin < lo || n.start > hi then acc
      else List.fold_left go (if n.start >= lo then n :: acc else acc) n.children
    in
    if lo > hi then [] else List.rev (go [] n)
  in
  let gone = within at and fresh = Array.of_list (within by) in
  (* Runs [ra..rb] are rebuilt around the change: run [ra] up to it,
     [fresh], run [rb] after it — and the next run too if that leaves
     a short one. *)
  let old = t.by_start in
  let nruns = Array.length old in
  let ra, ia = seek old lo and rb, ib = seek old (hi + 1) in
  let mid =
    Array.concat
      [ Array.sub old.(ra) 0 ia; fresh; Array.sub old.(rb) ib (Array.length old.(rb) - ib) ]
  in
  let mid, rb =
    if Array.length mid < run_length / 2 && rb + 1 < nruns then
      (Array.append mid old.(rb + 1), rb + 1)
    else (mid, rb)
  in
  let mid = split mid in
  let runs =
    Array.concat [ Array.sub old 0 ra; mid; Array.sub old (rb + 1) (nruns - rb - 1) ]
  in
  (* [by] and its ancestors start before [lo]: in a rebuilt run, or in
     an old one that is copied first. *)
  let copied = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let r, i = seek runs n.start in
      if (r < ra || r >= ra + Array.length mid) && not (Hashtbl.mem copied r) then begin
        runs.(r) <- Array.copy runs.(r);
        Hashtbl.replace copied r ()
      end;
      runs.(r).(i) <- n)
    (by :: !spine);
  (* In start order, the nodes up to the end of [fresh] ([cut] of them)
     are read from the new runs; after them the old list goes on
     unchanged and is shared. *)
  let before = ref 0 in
  for r = 0 to ra - 1 do
    before := !before + Array.length old.(r)
  done;
  let cut = !before + ia + Array.length fresh in
  let rec prefix r left acc =
    if left <= 0 then acc
    else
      let run = runs.(r) in
      prefix (r + 1) (left - Array.length run) ((run, min left (Array.length run)) :: acc)
  in
  let all =
    List.fold_left
      (fun tail (run, k) ->
        let l = ref tail in
        for i = k - 1 downto 0 do
          l := run.(i) :: !l
        done;
        !l)
      (drop (!before + ia + List.length gone) t.all)
      (prefix 0 cut [])
  in
  (* Arrivals first: a path that a renumbering keeps never empties. *)
  let guide =
    Array.fold_left
      (fun g n -> Blas_xml.Dataguide.add_path g n.source_path)
      t.guide fresh
  in
  let guide =
    List.fold_left (fun g n -> Blas_xml.Dataguide.remove_path g n.source_path) guide gone
  in
  { root; all; by_start = runs; guide }

(** [subtree node] rebuilds an XML tree for [node].  The node's text
    units are emitted as one leading text child: the labeled model
    concatenates a node's direct text, so the original interleaving of
    text and element children is not recoverable (query answers do not
    depend on it). *)
let rec subtree node =
  let text =
    match node.data with
    | Some d -> [ Blas_xml.Types.Content d ]
    | None -> []
  in
  Blas_xml.Types.Element (node.tag, text @ List.map subtree node.children)
