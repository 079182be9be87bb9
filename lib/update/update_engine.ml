(** The incremental update engine: insert or delete whole subtrees and
    replace text values without re-parsing or re-labeling the document.

    Both labeling schemes of the paper are designed to survive edits:

    - D-labels (Definition 3.1) compare positions, so any unused
      positions between two labels can be handed to an inserted subtree
      ({!Gap_alloc}).  Text units own positions that no relation row
      references, and deletions abandon theirs, so gaps are plentiful;
      when one is exhausted the smallest enclosing ancestor interval
      with enough capacity is renumbered with even spacing (a localized
      relabel — the number of labels moved is reported).
    - P-labels (Definition 3.3) are the left endpoints of intervals
      obtained by pure subdivision from the fixed tag inventory, so a
      newly materialized source path gets its label carved out without
      moving any existing label ({!Blas_label.Plabel.alloc_path}).
      Only a tag outside the inventory, or a path deeper than the
      table's height, forces the inventory — and hence every P-label —
      to be rebuilt.

    The relational layer is updated in place: affected rows are deleted
    and inserted at their clustered positions in SP and SD, the page
    directories are spliced to match, and every touched page goes
    through the buffer pool, so updates are paged and counted like reads
    ({!Blas_rel.Table.apply_edits}).  A tag-inventory change reloads
    both relations into the same page store ({!Layout.tables}). *)

module Doc = Blas_xpath.Doc
module Types = Blas_xml.Types
module Tag_table = Blas_label.Tag_table
module Plabel = Blas_label.Plabel
module Rel_table = Blas_rel.Table
module Pool = Blas_rel.Buffer_pool

(** The mutable components of one storage instance.  {!Blas.Update}
    binds these to [Storage.t]; keeping the engine below the core
    library lets it be tested and reused without the query machinery. *)
type target = {
  mutable doc : Doc.t;
  mutable table : Tag_table.t;
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
  inv_full : bool;  (** labels were recomputed wholesale — flush everything *)
  inv_schema_changed : bool;
      (** the DataGuide's path set changed, so decompositions may differ *)
  inv_plabels : Blas_label.Bignum.t list;
}

type report = {
  nodes_inserted : int;
  nodes_deleted : int;
  nodes_relabeled : int;  (** existing nodes whose D-label moved *)
  plabels_allocated : int;  (** P-labels computed for this edit *)
  pages_written : int;  (** pages written through the buffer pool *)
  table_rebuilt : bool;
      (** the tag inventory changed, so every P-label was recomputed *)
  invalidation : invalidation;  (** what the query cache must drop *)
}

let pp_report ppf r =
  Format.fprintf ppf
    "+%d -%d nodes, %d relabeled, %d plabels, %d pages written%s"
    r.nodes_inserted r.nodes_deleted r.nodes_relabeled r.plabels_allocated
    r.pages_written
    (if r.table_rebuilt then " (tag table rebuilt)" else "")

(* ------------------------------------------------------------------ *)
(* Metrics sink                                                       *)

(* [None] (the default) disables recording entirely. *)
let metrics_sink : Blas_obs.Metrics.t option ref = ref None

(** [set_metrics (Some registry)] installs the registry that receives
    per-edit metrics: [blas.update.ops] and [blas.update.latency_ns]
    (labelled by op), [blas.update.pages_written],
    [blas.update.nodes_relabeled], [blas.update.relabel_escalations]
    (labelled localized/whole) and [blas.update.table_rebuilds]. *)
let set_metrics registry = metrics_sink := registry

(* Finishes an edit: logs its report and, with a sink installed, charges
   the update metrics.  [escalation] says how far the D-label
   renumbering had to reach (None: the gap sufficed). *)
let record ~op ?escalation t0 (report : report) =
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
    if report.table_rebuilt then
      incr (counter registry "blas.update.table_rebuilds"));
  report

let sp_row table (n : Doc.node) =
  Layout.sp_row table n ~start:n.start ~fin:n.fin ~data:n.data

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

let node_plabel table (n : Doc.node) = Plabel.node_label table n.source_path

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

let rec skel_depth sk =
  1 + List.fold_left (fun a k -> max a (skel_depth k)) 0 sk.skids

let rec skel_tags acc sk = List.fold_left skel_tags (sk.stag :: acc) sk.skids

(* ------------------------------------------------------------------ *)
(* Label assignment                                                    *)

(** How the D-labels of an insert are found. *)
type allocation =
  | From_gap  (** the gap between the neighbours holds the subtree *)
  | Inside of Doc.node
      (** renumber everything strictly inside this ancestor's interval *)
  | Whole  (** renumber the entire document with fresh headroom *)

(* One DFS that hands out the positions of [positions] in order: old
   elements in the renumbered range get entries in the returned relabel
   table (old start -> new (start, fin)); the inserted skeleton is
   materialized into Doc.nodes at its spliced place inside [parent]. *)
let assign ~positions ~(parent : Doc.node) ~pos ~sk alloc =
  let idx = ref 0 in
  let next () =
    let p = positions.(!idx) in
    incr idx;
    p
  in
  let relabel : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let new_sub = ref None in
  (* [rpath] is the reversed source path of the node being built. *)
  let rec build_skel rpath level sk : Doc.node =
    let rpath = sk.stag :: rpath in
    let start = next () in
    let children =
      List.rev
        (List.fold_left
           (fun acc k -> build_skel rpath (level + 1) k :: acc)
           [] sk.skids)
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
  let build_new () =
    new_sub :=
      Some (build_skel (List.rev parent.source_path) (parent.level + 1) sk)
  in
  let rec visit_old (n : Doc.node) =
    let start = next () in
    visit_children n;
    let fin = next () in
    Hashtbl.replace relabel n.start (start, fin)
  and visit_children (n : Doc.node) =
    if n.start = parent.start then begin
      let rec go i = function
        | rest when i = pos ->
          build_new ();
          List.iter visit_old rest
        | [] -> ()
        | c :: rest ->
          visit_old c;
          go (i + 1) rest
      in
      go 0 n.children
    end
    else List.iter visit_old n.children
  in
  (match alloc with
  | From_gap -> build_new ()
  | Inside anchor -> visit_children anchor
  | Whole -> assert false (* rewritten to [Inside super] by assign_whole *));
  assert (!idx = Array.length positions);
  (relabel, Option.get !new_sub)

(* The [Whole] case needs to relabel the root itself, which [assign]'s
   [visit_children] entry point cannot; share the walk by treating the
   whole document as the child list of a virtual super-root. *)
let assign_whole ~positions ~(parent : Doc.node) ~pos ~sk (root : Doc.node) =
  let super : Doc.node =
    {
      tag = "";
      data = None;
      start = min_int;
      fin = max_int;
      level = 0;
      source_path = [];
      children = [ root ];
    }
  in
  assign ~positions ~parent ~pos ~sk (Inside super)

(* Rewrites the tree under [root] (the renumbered ancestor, or the
   document root for a whole renumbering): apply new labels from
   [relabel] and splice [new_sub] into [parent_start]'s children at
   [pos]. *)
let rebuild_tree ~relabel ~parent_start ~pos ~new_sub (root : Doc.node) =
  let rec go (n : Doc.node) : Doc.node =
    let start, fin =
      match Hashtbl.find_opt relabel n.start with
      | Some moved -> moved
      | None -> (n.start, n.fin)
    in
    let children = rev_map_children go n in
    let children =
      if n.start = parent_start then splice children pos new_sub else children
    in
    { n with start; fin; children }
  in
  go root

(* ------------------------------------------------------------------ *)
(* Full rebuild of the relational layer (tag inventory changed)        *)

(* Every P-label moved: the relations are bulk-loaded afresh into the
   same page store, in place of the old pages (each page written counts
   in the pool). *)
let rebuild_tables t (doc : Doc.t) =
  let store = Rel_table.store t.sp in
  Rel_table.drop t.sp;
  Rel_table.drop t.sd;
  let sp, sd = Layout.tables store t.table doc in
  t.sp <- sp;
  t.sd <- sd

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
  (* The label window between the insert's neighbours.  Its interior
     holds no element label (only abandoned text/deletion positions),
     so anything in it is free. *)
  let lo =
    if pos = 0 then parent_node.start
    else (List.nth parent_node.children (pos - 1)).fin
  in
  let hi =
    if pos = nkids then parent_node.fin
    else (List.nth parent_node.children pos).start
  in
  let alloc =
    if hi - lo - 1 >= slots then From_gap
    else
      (* Gap exhausted: renumber inside the smallest enclosing ancestor
         interval with enough capacity for its elements plus the new
         subtree.  Escalates to a full renumbering in the worst case. *)
      let rec first_fitting = function
        | [] -> Whole
        | (anc : Doc.node) :: rest ->
          let required = 2 * (subtree_count anc - 1 + k) in
          if anc.fin - anc.start - 1 >= required then Inside anc
          else first_fitting rest
      in
      first_fitting (parent_node :: ancestors doc parent_node)
  in
  let relabel, new_sub =
    match alloc with
    | From_gap ->
      let positions = Gap_alloc.spread ~lo ~hi ~slots in
      assign ~positions ~parent:parent_node ~pos ~sk From_gap
    | Inside anchor ->
      let required = 2 * (subtree_count anchor - 1 + k) in
      let positions =
        Gap_alloc.spread ~lo:anchor.start ~hi:anchor.fin ~slots:required
      in
      assign ~positions ~parent:parent_node ~pos ~sk (Inside anchor)
    | Whole ->
      let positions = Gap_alloc.fresh ~slots:(2 * (Doc.node_count doc + k)) in
      assign_whole ~positions ~parent:parent_node ~pos ~sk doc.root
  in
  (* P-labels: a new source path is labeled by interval subdivision and
     disturbs nothing; a new tag or excess depth forces an inventory
     rebuild and with it a recomputation of every P-label. *)
  let depth_needed = parent_node.level + skel_depth sk in
  let new_tags =
    List.filter
      (fun tag -> Tag_table.index t.table tag = None)
      (List.sort_uniq String.compare (skel_tags [] sk))
  in
  let table_rebuilt =
    new_tags <> [] || depth_needed > Tag_table.height t.table
  in
  (* Only a whole renumbering rebuilds the model; otherwise the parent
     (gap) or the renumbered ancestor gets a new record over a changed
     range of starts, and only its ancestors are copied. *)
  let rebuild = rebuild_tree ~relabel ~parent_start:parent_node.start ~pos ~new_sub in
  let new_doc =
    match alloc with
    | Whole -> Doc.of_root (rebuild doc.root)
    | From_gap ->
      Doc.replace doc ~at:parent_node
        ~by:{ parent_node with children = splice parent_node.children pos new_sub }
        ~changed:(new_sub.start, new_sub.fin) ()
    | Inside anchor ->
      Doc.replace doc ~at:anchor ~by:(rebuild anchor)
        ~changed:(anchor.start + 1, anchor.fin - 1) ()
  in
  (* The nodes the renumbering moved, in document order. *)
  let moved =
    Hashtbl.fold (fun start _ acc -> start :: acc) relabel []
    |> List.sort Int.compare |> List.map (find_node doc)
  in
  let fresh_nodes = new_sub :: Doc.descendants new_sub in
  let writes0 = Pool.writes t.pool in
  let counters = Blas_rel.Counters.create () in
  if table_rebuilt then begin
    (* Grow the inventory monotonically: keep retired tags and the old
       height so that later edits do not flip-flop the table (every
       rebuild reprices the whole SP relation). *)
    t.table <-
      Tag_table.create
        ~tags:(Tag_table.tags t.table @ new_tags)
        ~height:(max (Tag_table.height t.table) depth_needed);
    rebuild_tables t new_doc
  end
  else begin
    let moved_sp_ins =
      List.map
        (fun (n : Doc.node) ->
          let start, fin = Hashtbl.find relabel n.start in
          Layout.sp_row t.table n ~start ~fin ~data:n.data)
        moved
    in
    let moved_sd_ins =
      List.map
        (fun (n : Doc.node) ->
          let start, fin = Hashtbl.find relabel n.start in
          Layout.sd_row n ~start ~fin ~data:n.data)
        moved
    in
    ignore
      (Rel_table.apply_edits t.sp counters
         ~deletes:(List.map (sp_row t.table) moved)
         ~inserts:(moved_sp_ins @ List.map (sp_row t.table) fresh_nodes));
    ignore
      (Rel_table.apply_edits t.sd counters
         ~deletes:(List.map sd_row moved)
         ~inserts:(moved_sd_ins @ List.map sd_row fresh_nodes))
  end;
  t.doc <- new_doc;
  let escalation =
    match alloc with
    | From_gap -> None
    | Inside _ -> Some "localized"
    | Whole -> Some "whole"
  in
  let invalidation =
    (* A tag-inventory rebuild moves every P-label and a whole-document
       renumbering moves every D-label: both leave nothing for a cache
       to stand on.  Otherwise only the spliced subtree and the nodes
       the renumbering moved are touched: a localized renumbering keeps
       its ancestor's endpoints, so no other row changes. *)
    if table_rebuilt || (match alloc with Whole -> true | _ -> false) then
      {
        inv_full = true;
        inv_schema_changed = true;
        inv_plabels = [];
      }
    else
      {
        inv_full = false;
        inv_schema_changed = crosses_zero doc.guide fresh_nodes;
        inv_plabels = List.map (node_plabel t.table) (fresh_nodes @ moved);
      }
  in
  record ~op:"insert" ?escalation t0
    {
      nodes_inserted = k;
      nodes_deleted = 0;
      nodes_relabeled = Hashtbl.length relabel;
      plabels_allocated = (if table_rebuilt then Doc.node_count new_doc else k);
      pages_written = Pool.writes t.pool - writes0;
      table_rebuilt;
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
       ~deletes:(List.map (sp_row t.table) removed)
       ~inserts:[]);
  ignore
    (Rel_table.apply_edits t.sd counters
       ~deletes:(List.map sd_row removed)
       ~inserts:[]);
  (* Deletion never relabels: the subtree's positions simply become a
     gap for future inserts.  The tag inventory is kept even if the
     last node of some tag disappears — shrinking it would move every
     P-label for no benefit. *)
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
      table_rebuilt = false;
      invalidation =
        {
          inv_full = false;
          inv_schema_changed = crosses_zero new_doc.guide removed;
          inv_plabels = List.map (node_plabel t.table) removed;
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
       ~deletes:[ sp_row t.table node ]
       ~inserts:[ Layout.sp_row t.table node ~start:node.start ~fin:node.fin ~data ]);
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
      table_rebuilt = false;
      invalidation =
        {
          inv_full = false;
          inv_schema_changed = false;
          inv_plabels = [ node_plabel t.table node ];
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
