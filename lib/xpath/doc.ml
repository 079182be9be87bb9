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
  by_start : node array;  (** the same nodes, for binary search *)
  guide : Blas_xml.Dataguide.t;
}

let make ~root ~all ~guide =
  { root; all; by_start = Array.of_list all; guide }

(** [of_root root] — the document model around an already labeled
    root: every node, re-sorted by start, and the DataGuide of their
    source paths. *)
let of_root root =
  let rec collect acc n = List.fold_left collect (n :: acc) n.children in
  let all = List.sort (fun a b -> Stdlib.compare a.start b.start) (collect [] root) in
  let guide =
    List.fold_left
      (fun g n -> Blas_xml.Dataguide.add_path g n.source_path)
      Blas_xml.Dataguide.empty all
  in
  make ~root ~all ~guide

(** [of_tree tree] labels positions exactly like {!Blas_label.Dlabel}:
    every start tag, end tag and text unit occupies one position,
    1-based; the root is at level 1. *)
let of_tree tree =
  let pos = ref 0 in
  let next () =
    incr pos;
    !pos
  in
  let all = ref [] in
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
      let node =
        { tag; data; start; fin; level; source_path = List.rev path; children }
      in
      all := node :: !all;
      Some node
  in
  match go 1 [] tree with
  | None -> invalid_arg "Doc.of_tree: root must be an element"
  | Some root ->
    make ~root
      ~all:(List.sort (fun a b -> Stdlib.compare a.start b.start) !all)
      ~guide:(Blas_xml.Dataguide.of_tree tree)

let node_count t = List.length t.all

(** All strict descendants of [node], in document order. *)
let descendants node =
  let rec go acc n = List.fold_left (fun acc c -> go (c :: acc) c) acc n.children in
  List.rev (go [] node)

let dlabel node =
  Blas_label.Dlabel.make ~start:node.start ~fin:node.fin ~level:node.level

(** [data_or_empty n] is the node's text value, with [None] read as "". *)
let data_or_empty node = Option.value node.data ~default:""

(** [find_by_start t start] — the element node whose start tag sits at
    position [start], if any (binary search over document order). *)
let find_by_start t start =
  let arr = t.by_start in
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).start < start then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length arr && arr.(!lo).start = start then Some arr.(!lo)
  else None

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
