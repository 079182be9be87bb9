(** The incremental update engine: insert or delete whole subtrees and
    replace text values without re-parsing or re-labeling the document.

    Both labeling schemes of the paper are designed to survive edits:

    - D-labels (Definition 3.1) compare positions, so any unused
      positions between two labels can be handed to an inserted subtree
      ({!Gap_alloc}).  Text units own positions that no relation row
      references, and deletions abandon theirs, so gaps are plentiful.
      When one is exhausted, only enough neighbouring labels move to
      open one: the narrowest contiguous run of the label sequence
      around the insertion point whose bounding gap holds it plus the
      new subtree is respread with even spacing (list labeling, after
      Itai, Konheim and Rodeh and Bender et al.); every label outside
      the run stays, and the number of nodes moved is reported.
    - P-labels (Definition 3.3) are the labels of source paths in the
      document's guide, gapped ints in reversed-path order: a newly
      materialized path takes the midpoint of the gap where it sorts
      and moves no existing label, whatever its tags or depth.  When
      that gap has no room, the guide respreads the labels of a small
      window of neighbouring paths ({!Blas_xml.Dataguide.edit}), and
      exactly the SP rows of those paths are rewritten.

    The relational layer is updated in place: affected rows are deleted
    and inserted at their clustered positions in SP and SD, the page
    directories are spliced to match, and every touched page goes
    through the buffer pool, so updates are paged and counted like reads
    ({!Blas_rel.Table.apply_edits}). *)

module Doc = Blas_xpath.Doc
module Types = Blas_xml.Types
module Dataguide = Blas_xml.Dataguide
module Rel_table = Blas_rel.Table
module Pool = Blas_rel.Buffer_pool

(** The mutable components of one storage instance.  {!Blas.Update}
    binds these to [Storage.t]; keeping the engine below the core
    library lets it be tested and reused without the query machinery. *)
type target = {
  mutable doc : Doc.t;
  mutable sp : Rel_table.t;
  mutable sd : Rel_table.t;
  pool : Pool.t;
}

(** What this edit can have made stale, for the query cache (the core
    layer feeds it to [Qcache.invalidate]; cache entries outside the
    reach described here are provably still correct).  [inv_plabels]
    are the P-labels of every node the edit created, removed, moved or
    re-valued — every SP/SD row the edit changed carries one of them. *)
type invalidation = {
  inv_full : bool;
      (** labels moved wholesale (a whole-document renumbering or a
          P-label respread) — flush everything *)
  inv_schema_changed : bool;
      (** the DataGuide's path set changed, so decompositions may differ *)
  inv_plabels : int list;
}

type report = {
  nodes_inserted : int;
  nodes_deleted : int;
  nodes_relabeled : int;  (** existing nodes whose D-label moved *)
  plabels_allocated : int;  (** P-labels computed for this edit *)
  pages_written : int;  (** pages written through the buffer pool *)
  invalidation : invalidation;  (** what the query cache must drop *)
}

let pp_report ppf r =
  Format.fprintf ppf
    "+%d -%d nodes, %d relabeled, %d plabels, %d pages written"
    r.nodes_inserted r.nodes_deleted r.nodes_relabeled r.plabels_allocated
    r.pages_written

(* ------------------------------------------------------------------ *)
(* Metrics sink                                                       *)

(* [None] (the default) disables recording entirely. *)
let metrics_sink : Blas_obs.Metrics.t option ref = ref None

(** [set_metrics (Some registry)] installs the registry that receives
    per-edit metrics: [blas.update.ops] and [blas.update.latency_ns]
    (labelled by op), [blas.update.pages_written],
    [blas.update.nodes_relabeled], [blas.update.relabel_escalations]
    (labelled [localized] when a window of labels moved, [whole] when
    the document was renumbered) and [blas.update.plabel_respreads]. *)
let set_metrics registry = metrics_sink := registry

(* Finishes an edit: logs its report and, with a sink installed, charges
   the update metrics.  [escalation] says how far the D-label
   renumbering had to reach (None: the gap sufficed); [respread], that
   a new path's gap had no room and P-labels were respread. *)
let record ~op ?escalation ?(respread = false) t0 (report : report) =
  Update_log.Log.debug (fun m -> m "%s: %a" op pp_report report);
  (match !metrics_sink with
  | None -> ()
  | Some registry ->
    let open Blas_obs.Metrics in
    incr (counter registry ~labels:[ ("op", op) ] "blas.update.ops");
    observe
      (histogram registry ~labels:[ ("op", op) ] "blas.update.latency_ns")
      (Int64.to_float (Blas_obs.Clock.elapsed_ns t0));
    add (counter registry "blas.update.pages_written") report.pages_written;
    add (counter registry "blas.update.nodes_relabeled") report.nodes_relabeled;
    (match escalation with
    | None -> ()
    | Some scope ->
      incr
        (counter registry ~labels:[ ("scope", scope) ]
           "blas.update.relabel_escalations"));
    if respread then incr (counter registry "blas.update.plabel_respreads"));
  report

let sp_row guide (n : Doc.node) =
  Layout.sp_row guide n ~start:n.start ~fin:n.fin ~data:n.data

let sd_row (n : Doc.node) = Layout.sd_row n ~start:n.start ~fin:n.fin ~data:n.data

(* ------------------------------------------------------------------ *)
(* Document-model helpers                                              *)

let find_node (doc : Doc.t) start =
  match Doc.find_by_start doc start with
  | Some n -> n
  | None ->
    invalid_arg (Printf.sprintf "Update: no element starts at position %d" start)

(* Proper ancestors of [node], innermost first (empty for the root). *)
let ancestors (doc : Doc.t) (node : Doc.node) =
  let rec go acc (n : Doc.node) =
    if n.start = node.start then acc
    else
      match
        List.find_opt
          (fun (c : Doc.node) -> c.start <= node.start && c.fin >= node.fin)
          n.children
      with
      | Some child -> go (n :: acc) child
      | None -> assert false (* doc intervals nest *)
  in
  go [] doc.root

let rec subtree_count (n : Doc.node) =
  1 + List.fold_left (fun acc c -> acc + subtree_count c) 0 n.children

(* [splice lst pos x] inserts [x] before position [pos]. *)
let splice lst pos x =
  let rec go i = function
    | rest when i = pos -> x :: rest
    | [] -> invalid_arg "Update.splice: position out of range"
    | y :: rest -> y :: go (i + 1) rest
  in
  go 0 lst

let rev_map_children f (n : Doc.node) =
  List.rev (List.fold_left (fun acc c -> f c :: acc) [] n.children)

(* Whether some node of [nodes] has a source path on which [guide]
   counts no node — asked of the guide before an insert (the path is
   new) or after a delete (its last node went).  The guide's path set
   changed exactly when a count crossed zero: the signal that memoized
   decompositions, which consult the guide, may have gone stale. *)
let crosses_zero (guide : Blas_xml.Dataguide.t) nodes =
  List.exists
    (fun (n : Doc.node) -> Blas_xml.Dataguide.count guide n.source_path = 0)
    nodes

(* ------------------------------------------------------------------ *)
(* Inserted-fragment skeletons                                         *)

type skel = { stag : string; sdata : string option; skids : skel list }

let rec skel_of_tree = function
  | Types.Content _ ->
    invalid_arg "Update.insert_subtree: inserted subtree must be an element"
  | Types.Element (tag, kids) ->
    let texts =
      List.filter_map
        (function Types.Content s -> Some s | Types.Element _ -> None)
        kids
    in
    {
      stag = tag;
      sdata =
        (match texts with [] -> None | parts -> Some (String.concat "" parts));
      skids =
        List.filter_map
          (function
            | Types.Element _ as e -> Some (skel_of_tree e)
            | Types.Content _ -> None)
          kids;
    }

let rec skel_size sk = 1 + List.fold_left (fun a k -> a + skel_size k) 0 sk.skids

(* ------------------------------------------------------------------ *)
(* Label windows                                                       *)

(* A run of the document's labels — every start and fin, in document
   order — with the node each belongs to.  The insert goes into the gap
   after [labels.(p)]; gap [i] lies between [labels.(i)] and
   [labels.(i + 1)].  The window is the run of gaps [s..e] around [p]:
   the labels [labels.(s + 1) .. labels.(e)] inside it move, its bounds
   [labels.(s)] and [labels.(e + 1)] and every label outside stay. *)
type window = {
  labels : int array;
  owners : Doc.node array;
  p : int;
  s : int;
  e : int;
}

(* [n]'s labels and their owners in document order: [n.start] first,
   [n.fin] last. *)
let label_run (n : Doc.node) =
  let labels = ref [] and owners = ref [] in
  let push l o =
    labels := l :: !labels;
    owners := o :: !owners
  in
  let rec go (n : Doc.node) =
    push n.start n;
    List.iter go n.children;
    push n.fin n
  in
  go n;
  (Array.of_list (List.rev !labels), Array.of_list (List.rev !owners))

let index_of labels l =
  let rec find i = if labels.(i) = l then i else find (i + 1) in
  find 0

(* The narrowest run of gaps [s..e] with [s <= p <= e] whose free
   positions hold [slots]: the labels it moves, [e - s], are the fewest.
   For each left end [s], from [p] leftwards, the least right end that
   fits only moves left as [s] does (gaps are never negative), so one
   sweep finds it.  Ties go to the window furthest right.  The whole run
   must fit. *)
let narrowest labels ~p ~slots =
  let gap i = labels.(i + 1) - labels.(i) - 1 in
  let last = Array.length labels - 2 in
  let rec grow e sum =
    if sum >= slots || e = last then (e, sum) else grow (e + 1) (sum + gap (e + 1))
  in
  let rec shrink e sum =
    if e > p && sum - gap e >= slots then shrink (e - 1) (sum - gap e) else (e, sum)
  in
  (* [best] is the width and the bounds of the narrowest fit so far. *)
  let rec sweep s e sum best =
    let best = if sum >= slots && e - s < fst best then (e - s, (s, e)) else best in
    if s = 0 || p - s + 1 >= fst best then snd best
    else
      let e, sum = shrink e (sum + gap (s - 1)) in
      sweep (s - 1) e sum best
  in
  let e, sum = grow p (gap p) in
  sweep p e sum (max_int, (0, last))

(* Hands out [positions] along the window: its labels in order, with
   the inserted skeleton's slots at the insertion gap.  Returns the
   nodes with a label that moved (old start -> node, new start, new
   fin) and the skeleton materialized into Doc.nodes as a child of
   [parent]. *)
let assign w ~positions ~(parent : Doc.node) ~sk =
  let moved = Hashtbl.create 16 in
  let width = w.e - w.s in
  let slots = Array.length positions - width in
  for i = w.s + 1 to w.e do
    let n = w.owners.(i) in
    let q = positions.(if i <= w.p then i - w.s - 1 else i - w.s - 1 + slots) in
    let _, start, fin =
      Option.value (Hashtbl.find_opt moved n.start) ~default:(n, n.start, n.fin)
    in
    Hashtbl.replace moved n.start
      (if w.labels.(i) = n.start then (n, q, fin) else (n, start, q))
  done;
  (* A label the spread puts back where it was has not moved. *)
  Hashtbl.filter_map_inplace
    (fun _ ((n : Doc.node), start, fin as m) ->
      if start = n.start && fin = n.fin then None else Some m)
    moved;
  let idx = ref (w.p - w.s) in
  let next () =
    let q = positions.(!idx) in
    incr idx;
    q
  in
  (* [rpath] is the reversed source path of the node being built. *)
  let rec build rpath level sk : Doc.node =
    let rpath = sk.stag :: rpath in
    let start = next () in
    let children =
      List.rev
        (List.fold_left (fun acc k -> build rpath (level + 1) k :: acc) [] sk.skids)
    in
    let fin = next () in
    {
      tag = sk.stag;
      data = sk.sdata;
      start;
      fin;
      level;
      source_path = List.rev rpath;
      children;
    }
  in
  let new_sub = build (List.rev parent.source_path) (parent.level + 1) sk in
  assert (!idx = w.p - w.s + slots);
  (moved, new_sub)

(* Rewrites what the window reaches under [top]: a node with a label
   strictly between [lo] and [hi] (the window's bounds) takes its moved
   labels, [parent_start]'s node gets [new_sub] spliced into its
   children at [pos], and the records above them are copied; every
   other subtree is shared. *)
let rebuild_tree ~moved ~lo ~hi ~parent_start ~pos ~new_sub (top : Doc.node) =
  let rec go (n : Doc.node) : Doc.node =
    if n.fin <= lo || n.start >= hi then n
    else
      let start, fin =
        match Hashtbl.find_opt moved n.start with
        | Some (_, start, fin) -> (start, fin)
        | None -> (n.start, n.fin)
      in
      let children = rev_map_children go n in
      let children =
        if n.start = parent_start then splice children pos new_sub else children
      in
      { n with start; fin; children }
  in
  go top

(* ------------------------------------------------------------------ *)
(* insert_subtree                                                      *)

let insert_subtree t ~parent ~pos tree =
  let t0 = Blas_obs.Clock.now_ns () in
  let doc = t.doc in
  let parent_node = find_node doc parent in
  let nkids = List.length parent_node.children in
  if pos < 0 || pos > nkids then
    invalid_arg
      (Printf.sprintf "Update.insert_subtree: pos %d out of range 0..%d" pos
         nkids);
  let sk = skel_of_tree tree in
  let k = skel_size sk in
  let slots = 2 * k in
  (* The labels on either side of the insert.  Between them lie only
     abandoned text/deletion positions, so anything there is free. *)
  let lo =
    if pos = 0 then parent_node.start
    else (List.nth parent_node.children (pos - 1)).fin
  in
  let hi =
    if pos = nkids then parent_node.fin
    else (List.nth parent_node.children pos).start
  in
  (* The window and the node [top] whose subtree holds it ([None]: the
     whole document is renumbered, root included). *)
  let w, top =
    if hi - lo - 1 >= slots then
      (* The gap holds the subtree: an empty window, nothing moves. *)
      ({ labels = [| lo; hi |]; owners = [| parent_node; parent_node |]; p = 0; s = 0; e = 0 },
       Some parent_node)
    else
      (* Gap exhausted: search the smallest enclosing ancestor interval
         with room for its elements plus the new subtree, and move only
         the narrowest window of labels there that fits them.  The
         window's bounds stay, so the deepest ancestor holding both is
         the only record above it that changes. *)
      let chain = parent_node :: ancestors doc parent_node in
      match
        List.find_opt
          (fun (anc : Doc.node) ->
            anc.fin - anc.start - 1 >= 2 * (subtree_count anc - 1 + k))
          chain
      with
      | Some anchor ->
        let labels, owners = label_run anchor in
        let p = index_of labels lo in
        let s, e = narrowest labels ~p ~slots in
        let top =
          List.find
            (fun (a : Doc.node) -> a.start <= labels.(s) && a.fin >= labels.(e + 1))
            chain
        in
        ({ labels; owners; p; s; e }, Some top)
      | None ->
        (* No room even under the root: renumber everything, root
           included, between sentinel bounds. *)
        let labels, owners = label_run doc.root in
        ( {
            labels = Array.concat [ [| min_int |]; labels; [| max_int |] ];
            owners = Array.concat [ [| doc.root |]; owners; [| doc.root |] ];
            p = index_of labels lo + 1;
            s = 0;
            e = Array.length labels;
          },
          None )
  in
  let wlo = w.labels.(w.s) and whi = w.labels.(w.e + 1) in
  let positions =
    match top with
    | Some _ -> Gap_alloc.spread ~lo:wlo ~hi:whi ~slots:(w.e - w.s + slots)
    | None -> Gap_alloc.fresh ~slots:(w.e - w.s + slots)
  in
  let moved, new_sub = assign w ~positions ~parent:parent_node ~sk in
  let fresh_nodes = new_sub :: Doc.descendants new_sub in
  (* Only a whole renumbering rebuilds the model.  Otherwise [top] gets
     a new record over the range of starts the window reaches — from
     the first node with a label in it (whose start precedes the window
     when only its fin is inside) to the window's upper bound — and
     only its ancestors are copied.  Either way the guide counts the
     new nodes and labels their new paths. *)
  let rebuild =
    rebuild_tree ~moved ~lo:wlo ~hi:whi ~parent_start:parent_node.start ~pos ~new_sub
  in
  let new_doc =
    match top with
    | None ->
      Doc.of_root
        ~guide:
          (Dataguide.edit doc.guide
             ~add:(List.map (fun (n : Doc.node) -> n.source_path) fresh_nodes)
             ~remove:[])
        (rebuild doc.root)
    | Some top ->
      let first =
        Array.fold_left
          (fun acc (n : Doc.node) -> min acc n.start)
          (wlo + 1)
          (Array.sub w.owners (w.s + 1) (w.e - w.s))
      in
      Doc.replace doc ~at:top ~by:(rebuild top) ~changed:(first, whi - 1) ()
  in
  let before = doc.guide and after = new_doc.guide in
  (* The nodes the window moved, in document order, with their new
     labels. *)
  let moved_nodes =
    Hashtbl.fold (fun _ m acc -> m :: acc) moved []
    |> List.sort (fun ((a : Doc.node), _, _) ((b : Doc.node), _, _) ->
           Int.compare a.start b.start)
  in
  let moved_olds = List.map (fun (n, _, _) -> n) moved_nodes in
  let new_path = crosses_zero before fresh_nodes in
  (* P-labels a new path's gap could not hold: the nodes on the
     respread paths, found through their old labels in SP, get their SP
     rows rewritten with the new ones in place (the order is
     unchanged).  A moved node is rewritten with the others below. *)
  let respread = if new_path then Dataguide.relabeled ~before ~after else [] in
  let writes0 = Pool.writes t.pool in
  let counters = Blas_rel.Counters.create () in
  let respread_nodes =
    List.concat_map
      (fun (old_label, _) ->
        List.filter_map
          (fun row ->
            let start = Blas_rel.Value.to_int (Blas_rel.Tuple.get row 0) in
            if Hashtbl.mem moved start then None else Some (find_node doc start))
          (Rel_table.index_eq ~cols:[ "start" ] t.sp counters ~column:"plabel"
             (Blas_rel.Value.Int old_label)))
      respread
  in
  let moved_sp_ins =
    List.map
      (fun ((n : Doc.node), start, fin) -> Layout.sp_row after n ~start ~fin ~data:n.data)
      moved_nodes
  in
  let moved_sd_ins =
    List.map
      (fun ((n : Doc.node), start, fin) -> Layout.sd_row n ~start ~fin ~data:n.data)
      moved_nodes
  in
  ignore
    (Rel_table.apply_edits t.sp counters
       ~deletes:(List.map (sp_row before) (moved_olds @ respread_nodes))
       ~inserts:
         (moved_sp_ins @ List.map (sp_row after) (fresh_nodes @ respread_nodes)));
  ignore
    (Rel_table.apply_edits t.sd counters
       ~deletes:(List.map sd_row moved_olds)
       ~inserts:(moved_sd_ins @ List.map sd_row fresh_nodes));
  t.doc <- new_doc;
  let escalation =
    match top with
    | None -> Some "whole"
    | Some _ when w.s = w.e -> None
    | Some _ -> Some "localized"
  in
  let invalidation =
    (* A whole-document renumbering moves every D-label and a respread
       the P-labels of a window of paths: neither leaves a cache much
       to stand on.  Otherwise only the spliced subtree and the nodes
       with a label in the window are touched: every label outside it
       stays, so no other row changes. *)
    if respread <> [] || Option.is_none top then
      { inv_full = true; inv_schema_changed = true; inv_plabels = [] }
    else
      {
        inv_full = false;
        inv_schema_changed = new_path;
        inv_plabels = List.map (Layout.plabel after) (fresh_nodes @ moved_olds);
      }
  in
  record ~op:"insert" ?escalation ~respread:(respread <> []) t0
    {
      nodes_inserted = k;
      nodes_deleted = 0;
      nodes_relabeled = Hashtbl.length moved;
      plabels_allocated = k + List.length respread_nodes;
      pages_written = Pool.writes t.pool - writes0;
      invalidation;
    }

(* ------------------------------------------------------------------ *)
(* delete_subtree                                                      *)

let delete_subtree t ~start =
  let t0 = Blas_obs.Clock.now_ns () in
  let doc = t.doc in
  let node = find_node doc start in
  if node.start = doc.root.start then
    invalid_arg "Update.delete_subtree: cannot delete the document root";
  let removed = node :: Doc.descendants node in
  let writes0 = Pool.writes t.pool in
  let counters = Blas_rel.Counters.create () in
  ignore
    (Rel_table.apply_edits t.sp counters
       ~deletes:(List.map (sp_row doc.guide) removed)
       ~inserts:[]);
  ignore
    (Rel_table.apply_edits t.sd counters
       ~deletes:(List.map sd_row removed)
       ~inserts:[]);
  (* Deletion never relabels: the subtree's positions simply become a
     gap for future inserts, and a path that loses its last node
     leaves the guide, its label gap with it. *)
  let parent = List.hd (ancestors doc node) in
  let new_doc =
    Doc.replace doc ~at:parent
      ~by:
        {
          parent with
          children = List.filter (fun (c : Doc.node) -> c.start <> start) parent.children;
        }
      ~changed:(node.start, node.fin) ()
  in
  t.doc <- new_doc;
  record ~op:"delete" t0
    {
      nodes_inserted = 0;
      nodes_deleted = List.length removed;
      nodes_relabeled = 0;
      plabels_allocated = 0;
      pages_written = Pool.writes t.pool - writes0;
      invalidation =
        {
          inv_full = false;
          inv_schema_changed = crosses_zero new_doc.guide removed;
          inv_plabels = List.map (Layout.plabel doc.guide) removed;
        };
    }

(* ------------------------------------------------------------------ *)
(* replace_text                                                        *)

let replace_text t ~start data =
  let t0 = Blas_obs.Clock.now_ns () in
  let doc = t.doc in
  let node = find_node doc start in
  let writes0 = Pool.writes t.pool in
  let counters = Blas_rel.Counters.create () in
  ignore
    (Rel_table.apply_edits t.sp counters
       ~deletes:[ sp_row doc.guide node ]
       ~inserts:[ Layout.sp_row doc.guide node ~start:node.start ~fin:node.fin ~data ]);
  ignore
    (Rel_table.apply_edits t.sd counters
       ~deletes:[ sd_row node ]
       ~inserts:[ Layout.sd_row node ~start:node.start ~fin:node.fin ~data ]);
  t.doc <- Doc.replace doc ~at:node ~by:{ node with data } ();
  record ~op:"replace_text" t0
    {
      nodes_inserted = 0;
      nodes_deleted = 0;
      nodes_relabeled = 0;
      plabels_allocated = 0;
      pages_written = Pool.writes t.pool - writes0;
      invalidation =
        {
          inv_full = false;
          inv_schema_changed = false;
          inv_plabels = [ Layout.plabel doc.guide node ];
        };
    }

(* ------------------------------------------------------------------ *)
(* Headroom observability (the CLI's stats view)                       *)

(** [gap_budget doc] — [(free, span)]: how many positions inside the
    root's interval carry no element label, out of the interval's total
    size.  Free positions are exactly what inserts can consume before a
    renumbering. *)
let gap_budget (doc : Doc.t) =
  let span = doc.root.fin - doc.root.start + 1 in
  (span - (2 * Doc.node_count doc), span)
