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
    ({!Blas_rel.Table.apply_edits}).  The engine finds the rows an edit
    touches in the document's label columns ({!Columns}), which it then
    edits in place; it builds no tree. *)

module Types = Blas_xml.Types
module Dataguide = Blas_xml.Dataguide
module Rel_table = Blas_rel.Table
module Pool = Blas_rel.Buffer_pool

(** The mutable components of one storage instance.  {!Blas.Update}
    binds these to [Storage.t]; keeping the engine below the core
    library lets it be tested and reused without the query machinery. *)
type target = {
  cols : Columns.t;
  mutable guide : Dataguide.t;
  sp : Rel_table.t;
  sd : Rel_table.t;
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

(* The SP and SD rows of a node at the given labels and text, and as it
   stands. *)
let sp_row guide (r : Columns.row) ~start ~fin ~data =
  Layout.sp_row guide ~path:r.path ~start ~fin ~level:r.level ~data

let sd_row (r : Columns.row) ~start ~fin ~data =
  Layout.sd_row ~tag:(Layout.tag r.path) ~start ~fin ~level:r.level ~data

let sp_of guide (r : Columns.row) = sp_row guide r ~start:r.start ~fin:r.fin ~data:r.data

let sd_of (r : Columns.row) = sd_row r ~start:r.start ~fin:r.fin ~data:r.data

(* ------------------------------------------------------------------ *)
(* Column helpers                                                      *)

let find_row (c : Columns.t) start =
  match Columns.find c start with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "Update: no element starts at position %d" start)

(* Whether some path of [paths] has no node counted in [guide] — asked
   of the guide before an insert (the path is new) or after a delete
   (its last node went).  The guide's path set changed exactly when a
   count crossed zero: the signal that memoized decompositions, which
   consult the guide, may have gone stale. *)
let crosses_zero guide paths =
  List.exists (fun path -> Dataguide.count guide path = 0) paths

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
   order — with the row each belongs to.  The insert goes into the gap
   after [labels.(p)]; gap [i] lies between [labels.(i)] and
   [labels.(i + 1)].  The window is the run of gaps [s..e] around [p]:
   the labels [labels.(s + 1) .. labels.(e)] inside it move, its bounds
   [labels.(s)] and [labels.(e + 1)] and every label outside stay. *)
type window = {
  labels : int array;
  owners : int array;
  p : int;
  s : int;
  e : int;
}

(* Row [a]'s subtree's labels and their rows in document order: its
   start first, its fin last.  A row's fin comes once every row
   starting before it has closed. *)
let label_run (c : Columns.t) a =
  let last = Columns.subtree_end c a in
  let labels = Array.make (2 * (last - a)) 0 in
  let owners = Array.make (2 * (last - a)) 0 in
  let k = ref 0 in
  let push l r =
    labels.(!k) <- l;
    owners.(!k) <- r;
    incr k
  in
  let rec close open_ bound =
    match open_ with
    | r :: rest when c.fin.{r} < bound ->
      push c.fin.{r} r;
      close rest bound
    | _ -> open_
  in
  let open_ = ref [] in
  for r = a to last - 1 do
    open_ := close !open_ c.start.{r};
    push c.start.{r} r;
    open_ := r :: !open_
  done;
  ignore (close !open_ max_int);
  (labels, owners)

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
   rows with a label that moved (row -> new start, new fin) and the
   skeleton's rows, in document order, as descendants of row
   [parent]. *)
let assign (c : Columns.t) w ~positions ~parent ~sk =
  let moved = Hashtbl.create 16 in
  let width = w.e - w.s in
  let slots = Array.length positions - width in
  for i = w.s + 1 to w.e do
    let r = w.owners.(i) in
    let q = positions.(if i <= w.p then i - w.s - 1 else i - w.s - 1 + slots) in
    let start, fin =
      Option.value (Hashtbl.find_opt moved r) ~default:(c.start.{r}, c.fin.{r})
    in
    Hashtbl.replace moved r (if w.labels.(i) = c.start.{r} then (q, fin) else (start, q))
  done;
  (* A label the spread puts back where it was has not moved. *)
  Hashtbl.filter_map_inplace
    (fun r ((start, fin) as m) ->
      if start = c.start.{r} && fin = c.fin.{r} then None else Some m)
    moved;
  let idx = ref (w.p - w.s) in
  let next () =
    let q = positions.(!idx) in
    incr idx;
    q
  in
  (* [rpath] is the reversed source path of the node being built. *)
  let rec build rpath level sk : Columns.row list =
    let rpath = sk.stag :: rpath in
    let start = next () in
    let kids =
      List.fold_left
        (fun acc k -> List.rev_append (build rpath (level + 1) k) acc)
        [] sk.skids
    in
    let fin = next () in
    { start; fin; level; path = List.rev rpath; data = sk.sdata } :: List.rev kids
  in
  let fresh = build (List.rev c.paths.(c.path.{parent})) (c.level.{parent} + 1) sk in
  assert (!idx = w.p - w.s + slots);
  (moved, fresh)

(* ------------------------------------------------------------------ *)
(* insert_subtree                                                      *)

let insert_subtree t ~parent ~pos tree =
  let t0 = Blas_obs.Clock.now_ns () in
  let c = t.cols in
  let pi = find_row c parent in
  let kids = Columns.children c pi in
  let nkids = List.length kids in
  if pos < 0 || pos > nkids then
    invalid_arg
      (Printf.sprintf "Update.insert_subtree: pos %d out of range 0..%d" pos
         nkids);
  let sk = skel_of_tree tree in
  let k = skel_size sk in
  let slots = 2 * k in
  (* The labels on either side of the insert.  Between them lie only
     abandoned text/deletion positions, so anything there is free. *)
  let lo = if pos = 0 then c.start.{pi} else c.fin.{List.nth kids (pos - 1)} in
  let hi = if pos = nkids then c.fin.{pi} else c.start.{List.nth kids pos} in
  (* The window, and whether it renumbers the whole document, root
     included. *)
  let w, whole =
    if hi - lo - 1 >= slots then
      (* The gap holds the subtree: an empty window, nothing moves. *)
      ({ labels = [| lo; hi |]; owners = [| pi; pi |]; p = 0; s = 0; e = 0 }, false)
    else
      (* Gap exhausted: search the smallest enclosing ancestor interval
         with room for its elements plus the new subtree, and move only
         the narrowest window of labels there that fits them. *)
      let fits a =
        c.fin.{a} - c.start.{a} - 1 >= 2 * (Columns.subtree_end c a - a - 1 + k)
      in
      let rec anchor a =
        if fits a then Some a else if a = 0 then None else anchor (Columns.parent c a)
      in
      match anchor pi with
      | Some a ->
        let labels, owners = label_run c a in
        let p = index_of labels lo in
        let s, e = narrowest labels ~p ~slots in
        ({ labels; owners; p; s; e }, false)
      | None ->
        (* No room even under the root: renumber everything, root
           included, between sentinel bounds. *)
        let labels, owners = label_run c 0 in
        ( {
            labels = Array.concat [ [| min_int |]; labels; [| max_int |] ];
            owners = Array.concat [ [| 0 |]; owners; [| 0 |] ];
            p = index_of labels lo + 1;
            s = 0;
            e = Array.length labels;
          },
          true )
  in
  let positions =
    if whole then Gap_alloc.fresh ~slots:(w.e - w.s + slots)
    else
      Gap_alloc.spread ~lo:w.labels.(w.s) ~hi:w.labels.(w.e + 1)
        ~slots:(w.e - w.s + slots)
  in
  let moved, fresh = assign c w ~positions ~parent:pi ~sk in
  let fresh_paths = List.map (fun (r : Columns.row) -> r.path) fresh in
  (* The guide counts the new nodes and labels their new paths. *)
  let before = t.guide in
  let after = Dataguide.edit before ~add:fresh_paths ~remove:[] in
  (* The rows the window moved, in document order. *)
  let moved_rows =
    List.sort Int.compare (Hashtbl.fold (fun r _ acc -> r :: acc) moved [])
  in
  let new_path = crosses_zero before fresh_paths in
  (* P-labels a new path's gap could not hold: the nodes on the
     respread paths, found through their old labels in SP, get their SP
     rows rewritten with the new ones in place (the order is
     unchanged).  A moved node is rewritten with the others below. *)
  let respread = if new_path then Dataguide.relabeled ~before ~after else [] in
  let writes0 = Pool.writes t.pool in
  let counters = Blas_rel.Counters.create () in
  let respread_rows =
    List.concat_map
      (fun (old_label, _) ->
        List.filter_map
          (fun row ->
            let r = find_row c (Blas_rel.Value.to_int (Blas_rel.Tuple.get row 0)) in
            if Hashtbl.mem moved r then None else Some (Columns.row c r))
          (Rel_table.index_eq ~cols:[ "start" ] t.sp counters ~column:"plabel"
             (Blas_rel.Value.Int old_label)))
      respread
  in
  let olds = List.map (Columns.row c) moved_rows in
  let moved_to f =
    List.map2
      (fun i (r : Columns.row) ->
        let start, fin = Hashtbl.find moved i in
        f r ~start ~fin ~data:r.data)
      moved_rows olds
  in
  ignore
    (Rel_table.apply_edits t.sp counters
       ~deletes:(List.map (sp_of before) (olds @ respread_rows))
       ~inserts:(moved_to (sp_row after) @ List.map (sp_of after) (fresh @ respread_rows)));
  ignore
    (Rel_table.apply_edits t.sd counters
       ~deletes:(List.map sd_of olds)
       ~inserts:(moved_to sd_row @ List.map sd_of fresh));
  (* The columns follow: the moved labels keep their order, and the new
     rows go where their start sorts. *)
  Hashtbl.iter (fun r (start, fin) -> Columns.relabel c r ~start ~fin) moved;
  Columns.insert c fresh;
  t.guide <- after;
  let escalation =
    if whole then Some "whole" else if w.s = w.e then None else Some "localized"
  in
  let invalidation =
    (* A whole-document renumbering moves every D-label and a respread
       the P-labels of a window of paths: neither leaves a cache much
       to stand on.  Otherwise only the spliced subtree and the nodes
       with a label in the window are touched: every label outside it
       stays, so no other row changes. *)
    if respread <> [] || whole then
      { inv_full = true; inv_schema_changed = true; inv_plabels = [] }
    else
      {
        inv_full = false;
        inv_schema_changed = new_path;
        inv_plabels =
          List.map (fun (r : Columns.row) -> Layout.plabel after r.path) (fresh @ olds);
      }
  in
  record ~op:"insert" ?escalation ~respread:(respread <> []) t0
    {
      nodes_inserted = k;
      nodes_deleted = 0;
      nodes_relabeled = Hashtbl.length moved;
      plabels_allocated = k + List.length respread_rows;
      pages_written = Pool.writes t.pool - writes0;
      invalidation;
    }

(* ------------------------------------------------------------------ *)
(* delete_subtree                                                      *)

let delete_subtree t ~start =
  let t0 = Blas_obs.Clock.now_ns () in
  let c = t.cols in
  let i = find_row c start in
  if i = 0 then invalid_arg "Update.delete_subtree: cannot delete the document root";
  let j = Columns.subtree_end c i in
  let removed = List.init (j - i) (fun d -> Columns.row c (i + d)) in
  let writes0 = Pool.writes t.pool in
  let counters = Blas_rel.Counters.create () in
  ignore
    (Rel_table.apply_edits t.sp counters
       ~deletes:(List.map (sp_of t.guide) removed)
       ~inserts:[]);
  ignore (Rel_table.apply_edits t.sd counters ~deletes:(List.map sd_of removed) ~inserts:[]);
  (* Deletion never relabels: the subtree's positions simply become a
     gap for future inserts, and a path that loses its last node
     leaves the guide, its label gap with it. *)
  let paths = List.map (fun (r : Columns.row) -> r.path) removed in
  let before = t.guide in
  t.guide <- Dataguide.edit before ~add:[] ~remove:paths;
  Columns.remove c i j;
  record ~op:"delete" t0
    {
      nodes_inserted = 0;
      nodes_deleted = j - i;
      nodes_relabeled = 0;
      plabels_allocated = 0;
      pages_written = Pool.writes t.pool - writes0;
      invalidation =
        {
          inv_full = false;
          inv_schema_changed = crosses_zero t.guide paths;
          inv_plabels = List.map (Layout.plabel before) paths;
        };
    }

(* ------------------------------------------------------------------ *)
(* replace_text                                                        *)

let replace_text t ~start data =
  let t0 = Blas_obs.Clock.now_ns () in
  let c = t.cols in
  let i = find_row c start in
  let node = Columns.row c i in
  let writes0 = Pool.writes t.pool in
  let counters = Blas_rel.Counters.create () in
  ignore
    (Rel_table.apply_edits t.sp counters
       ~deletes:[ sp_of t.guide node ]
       ~inserts:[ sp_row t.guide node ~start:node.start ~fin:node.fin ~data ]);
  ignore
    (Rel_table.apply_edits t.sd counters
       ~deletes:[ sd_of node ]
       ~inserts:[ sd_row node ~start:node.start ~fin:node.fin ~data ]);
  Columns.set_data c i data;
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
          inv_plabels = [ Layout.plabel t.guide node.path ];
        };
    }

(* ------------------------------------------------------------------ *)
(* Headroom observability (the CLI's stats view)                       *)

(** [gap_budget cols] — [(free, span)]: how many positions inside the
    root's interval (row 0) carry no element label, out of the
    interval's total size.  Free positions are exactly what inserts can
    consume before a renumbering. *)
let gap_budget (c : Columns.t) =
  let span = c.fin.{0} - c.start.{0} + 1 in
  (span - (2 * Columns.length c), span)
