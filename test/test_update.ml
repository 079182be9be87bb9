(** Tests for the incremental update subsystem ({!Blas.Update}).

    The integration property is the update analogue of the
    engine-vs-oracle property: apply a random edit script to a built
    index, then require every translator x engine combination on the
    updated storage to agree with the naive oracle, and the oracle
    itself to agree — up to document-order rank, since incremental
    labels are sparse — with an index rebuilt from scratch on the
    edited tree. *)

open Test_util

let translators =
  Blas.[ D_labeling; Split; Pushup; Unfold; Auto2 ]

let engines = Blas.[ Rdbms; Twig ]

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let storage_of s = Blas.index s

let all_nodes (storage : Blas.Storage.t) =
  (Blas.Storage.doc storage).Blas_xpath.Doc.all

(** Start position of the [i]-th node with tag [tag], document order. *)
let start_of_tag storage tag i =
  let matching =
    List.filter
      (fun (n : Blas_xpath.Doc.node) -> n.tag = tag)
      (all_nodes storage)
  in
  (List.nth matching i).Blas_xpath.Doc.start

(** Document-order ranks of a start-position answer set: position of
    each answer node in [doc.all].  Rank survives relabeling, so it is
    the right currency for comparing an incrementally updated index
    against one rebuilt from scratch. *)
let ranks_of storage starts =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun rank (n : Blas_xpath.Doc.node) -> Hashtbl.add tbl n.start rank)
    (all_nodes storage);
  List.sort Stdlib.compare (List.map (Hashtbl.find tbl) starts)

let rebuilt_from_scratch storage =
  Blas.index_of_tree
    (Blas_xpath.Doc.subtree (Blas.Storage.doc storage).Blas_xpath.Doc.root)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let test_insert_into_gap () =
  (* Deleting [b] frees its positions; re-inserting a same-size
     fragment in its place must fit the gap without touching any
     existing label. *)
  let storage = storage_of "<r><a>x</a><b>y</b><a>z</a></r>" in
  let before = List.map (fun (n : Blas_xpath.Doc.node) -> (n.tag, n.start)) (all_nodes storage) in
  let b = start_of_tag storage "b" 0 in
  let del = Blas.Update.delete_subtree storage ~start:b in
  check_int "deleted" 1 del.nodes_deleted;
  check_int "delete never relabels" 0 del.nodes_relabeled;
  let free_after_delete, _ = Blas.Update.gap_budget storage in
  check_bool "delete frees gap budget" true (free_after_delete >= 2);
  let ins =
    Blas.Update.insert_subtree storage ~parent:1 ~pos:1
      (Blas_xml.Types.Element ("b", [ Blas_xml.Types.Content "y" ]))
  in
  check_int "inserted" 1 ins.nodes_inserted;
  check_int "gap insert relabels nothing" 0 ins.nodes_relabeled;
  check_int "one P-label computed" 1 ins.plabels_allocated;
  let after = List.map (fun (n : Blas_xpath.Doc.node) -> (n.tag, n.start)) (all_nodes storage) in
  List.iter
    (fun (tag, start) ->
      if tag <> "b" then
        check_bool "old labels unchanged" true (List.mem (tag, start) after))
    before;
  check_int_list "answers correct" [ start_of_tag storage "b" 0 ]
    (Blas.oracle storage (Blas.query "/r/b"))

let test_localized_relabel () =
  (* The gap between [a] and [b]'s end is one position — too narrow for
     an element — but [b]'s own interval has just enough slack, so only
     [b]'s subtree is renumbered and the root label survives. *)
  let storage = storage_of "<r>x<b>y<a/>z</b>w</r>" in
  let root_before = (List.hd (all_nodes storage)).Blas_xpath.Doc.start in
  let b = start_of_tag storage "b" 0 in
  let report =
    Blas.Update.insert_subtree storage ~parent:b ~pos:1
      (Blas_xml.Types.Element ("a", []))
  in
  check_int "one node relabeled" 1 report.nodes_relabeled;
  check_int "one P-label computed" 1 report.plabels_allocated;
  let root_after = (List.hd (all_nodes storage)).Blas_xpath.Doc.start in
  check_int "root label untouched" root_before root_after;
  check_int "two a nodes now" 2
    (List.length (Blas.oracle storage (Blas.query "//a")))

let test_whole_document_relabel () =
  (* A dense document with no gap anywhere: insertion escalates to a
     full renumber with headroom, so the next insert fits a gap. *)
  let storage = storage_of "<r><a/><b/></r>" in
  let report =
    Blas.Update.insert_subtree storage ~parent:1 ~pos:1
      (Blas_xml.Types.Element ("a", []))
  in
  check_int "every old node relabeled" 3 report.nodes_relabeled;
  let free, _ = Blas.Update.gap_budget storage in
  check_bool "headroom after full renumber" true (free > 0);
  let again =
    Blas.Update.insert_subtree storage ~parent:(List.hd (all_nodes storage)).Blas_xpath.Doc.start
      ~pos:0
      (Blas_xml.Types.Element ("b", []))
  in
  check_int "second insert uses the headroom" 0 again.nodes_relabeled

let test_window_relabel () =
  (* A dense parent of ten text leaves: each child owns one free
     position (its text), and there is none at the parent's end.  The
     parent has room for a 3-element subtree, but appending one moves
     only the narrowest window of labels that holds its 6 slots: the
     last six children's, whose six free positions it takes over.  The
     parent, the root and the first four children keep their labels. *)
  let storage =
    storage_of
      ("<r><p>" ^ String.concat "" (List.init 10 (fun _ -> "<c>t</c>")) ^ "</p></r>")
  in
  let labels () =
    List.map (fun (n : Blas_xpath.Doc.node) -> (n.tag, n.start, n.fin)) (all_nodes storage)
  in
  let before = labels () in
  let p = start_of_tag storage "p" 0 in
  let report =
    Blas.Update.insert_subtree storage ~parent:p ~pos:10
      (Blas_xml.Dom.parse "<b><c/><c/></b>")
  in
  check_int "the window's nodes relabeled" 6 report.nodes_relabeled;
  check_bool "fewer than the parent's descendants" true (report.nodes_relabeled < 10);
  (* The subtree is appended, so the old nodes come first. *)
  let after = List.filteri (fun i _ -> i < List.length before) (labels ()) in
  List.iteri
    (fun i (b, a) ->
      if i < 6 then check_bool "outside the window: label kept" true (b = a)
      else check_bool "inside the window: label moved" true (b <> a))
    (List.combine before after);
  List.iter
    (fun q ->
      let q = Blas.query q in
      check_int_list "answers" (Blas.oracle storage q)
        (Blas.answers storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q))
    [ "//c"; "/r/p/b/c"; "//p/c" ]

(* A new path takes a free label of the guide's order whatever its tags
   or depth: no existing P-label moves, and only the new nodes get
   one. *)
let check_no_plabel_moved storage edit =
  let before = Blas.Storage.guide storage in
  let report = edit () in
  check_bool "no P-label moved" true
    (Blas_xml.Dataguide.relabeled ~before ~after:(Blas.Storage.guide storage)
    = []);
  check_int "P-labels only for the new nodes" report.Blas.Update.nodes_inserted
    report.plabels_allocated;
  check_bool "a new path changes the schema" true
    report.invalidation.inv_schema_changed

let test_new_tag_relabels_nothing () =
  let storage = storage_of "<r><a/></r>" in
  check_no_plabel_moved storage (fun () ->
      Blas.Update.insert_subtree storage ~parent:1 ~pos:1
        (Blas_xml.Types.Element ("zzz", [])));
  check_int "query finds the new tag" 1
    (List.length (Blas.oracle storage (Blas.query "/r/zzz")));
  check_int_list "Push-up agrees" (Blas.oracle storage (Blas.query "//zzz"))
    (Blas.answers storage ~engine:Blas.Rdbms ~translator:Blas.Pushup
       (Blas.query "//zzz"))

let test_depth_growth_relabels_nothing () =
  let storage = storage_of "<r><a/></r>" in
  let deep =
    Blas_xml.Types.(Element ("a", [ Element ("b", [ Element ("a", []) ]) ]))
  in
  check_no_plabel_moved storage (fun () ->
      Blas.Update.insert_subtree storage ~parent:1 ~pos:0 deep);
  check_int "deep path reachable" 1
    (List.length (Blas.oracle storage (Blas.query "/r/a/b/a")));
  check_int_list "Split agrees" (Blas.oracle storage (Blas.query "//b/a"))
    (Blas.answers storage ~engine:Blas.Twig ~translator:Blas.Split
       (Blas.query "//b/a"))

let test_delete_subtree () =
  let storage = storage_of "<r><a><b/><b/></a><b/></r>" in
  let a = start_of_tag storage "a" 0 in
  let report = Blas.Update.delete_subtree storage ~start:a in
  check_int "subtree counted" 3 report.nodes_deleted;
  check_int "one b left" 1 (List.length (Blas.oracle storage (Blas.query "//b")));
  check_int "a gone" 0 (List.length (Blas.oracle storage (Blas.query "//a")))

let test_replace_text () =
  let storage = storage_of "<r><a>x</a><a>y</a></r>" in
  let first = start_of_tag storage "a" 0 in
  let report = Blas.Update.replace_text storage ~start:first (Some "y") in
  check_int "no structural change" 0
    (report.nodes_inserted + report.nodes_deleted + report.nodes_relabeled);
  check_int "both match now" 2
    (List.length (Blas.oracle storage (Blas.query "/r/a = \"y\"")));
  ignore (Blas.Update.replace_text storage ~start:first None);
  check_int "cleared" 1
    (List.length (Blas.oracle storage (Blas.query "/r/a = \"y\"")))

let test_errors () =
  let storage = storage_of "<r><a>x</a></r>" in
  let frag = Blas_xml.Types.Element ("b", []) in
  check_bool "unknown parent" true
    (raises_invalid (fun () ->
         Blas.Update.insert_subtree storage ~parent:999 ~pos:0 frag));
  check_bool "pos out of range" true
    (raises_invalid (fun () ->
         Blas.Update.insert_subtree storage ~parent:1 ~pos:2 frag));
  check_bool "negative pos" true
    (raises_invalid (fun () ->
         Blas.Update.insert_subtree storage ~parent:1 ~pos:(-1) frag));
  check_bool "text fragment root" true
    (raises_invalid (fun () ->
         Blas.Update.insert_subtree storage ~parent:1 ~pos:0
           (Blas_xml.Types.Content "oops")));
  check_bool "delete root" true
    (raises_invalid (fun () -> Blas.Update.delete_subtree storage ~start:1));
  check_bool "delete unknown" true
    (raises_invalid (fun () -> Blas.Update.delete_subtree storage ~start:999));
  check_bool "replace unknown" true
    (raises_invalid (fun () ->
         Blas.Update.replace_text storage ~start:999 (Some "x")))

(* The stored guide keeps the labels the edits gave each path. *)
let same_labels (a : Blas.Storage.t) (b : Blas.Storage.t) =
  Blas_xml.Dataguide.entries (Blas.Storage.guide a)
  = Blas_xml.Dataguide.entries (Blas.Storage.guide b)

let test_persist_round_trip () =
  let storage = storage_of "<r><a>x</a><b/></r>" in
  ignore
    (Blas.Update.insert_subtree storage ~parent:1 ~pos:2
       (Blas_xml.Types.Element ("c", [ Blas_xml.Types.Content "y" ])));
  let b = start_of_tag storage "b" 0 in
  ignore (Blas.Update.delete_subtree storage ~start:b);
  Test_util.with_db_copy storage (fun reloaded ->
      (* A database preserves positions and P-labels exactly, so
         answers match on raw starts; the deleted b's path left the
         guide with its label. *)
      check_bool "labels kept" true (same_labels storage reloaded);
      check_bool "the deleted path is gone" true
        (Blas_xml.Dataguide.label (Blas.Storage.guide reloaded) [ "r"; "b" ]
        = None);
      List.iter
        (fun q ->
          let query = Blas.query q in
          check_int_list ("reloaded answers: " ^ q)
            (Blas.oracle storage query)
            (Blas.oracle reloaded query))
        [ "//a"; "//b"; "/r/c"; "//c = \"y\"" ])

(* ------------------------------------------------------------------ *)
(* Property: random edit scripts keep every engine consistent          *)

(** Abstract edit instruction; integers are resolved against the
    document state at application time, so any instruction is valid on
    any document. *)
type edit =
  | Insert of int * int * Blas_xml.Types.tree
  | Delete of int
  | Retext of int * string option

let edit_gen =
  let open QCheck2.Gen in
  frequency
    [
      ( 3,
        let* parent = nat and* pos = nat and* tree = tree_gen in
        return (Insert (parent, pos, tree)) );
      (2, map (fun i -> Delete i) nat);
      ( 1,
        let* i = nat and* v = opt value in
        return (Retext (i, v)) );
    ]

let apply_edit storage edit =
  let nodes = Array.of_list (all_nodes storage) in
  let n = Array.length nodes in
  match edit with
  | Insert (parent, pos, tree) ->
    let parent = nodes.(parent mod n) in
    let pos = pos mod (List.length parent.Blas_xpath.Doc.children + 1) in
    ignore
      (Blas.Update.insert_subtree storage ~parent:parent.Blas_xpath.Doc.start
         ~pos tree)
  | Delete i ->
    (* Never delete the root; skip when it is the only node. *)
    if n > 1 then
      let node = nodes.(1 + (i mod (n - 1))) in
      ignore (Blas.Update.delete_subtree storage ~start:node.Blas_xpath.Doc.start)
  | Retext (i, v) ->
    let node = nodes.(i mod n) in
    ignore (Blas.Update.replace_text storage ~start:node.Blas_xpath.Doc.start v)

let script_gen =
  let open QCheck2.Gen in
  let* doc = doc_gen in
  let* edits = list_size (int_range 1 6) edit_gen in
  let* queries = list_size (return 3) (query_gen ~wildcards:true ()) in
  return (doc, edits, queries)

(* Every translator x engine answers [queries] on the edited [storage]
   like the oracle, and the oracle agrees with an index rebuilt from
   scratch. *)
let agrees_with_oracle_and_rebuild storage queries =
  Test_util.with_storage (rebuilt_from_scratch storage) @@ fun scratch ->
  List.for_all
    (fun query ->
      let expected = Blas.oracle storage query in
      (* Incremental labels are sparse, so compare the from-scratch
         rebuild by document-order rank. *)
      ranks_of storage expected
      = ranks_of scratch (Blas.oracle scratch query)
      && List.for_all
           (fun translator ->
             List.for_all
               (fun engine ->
                 Blas.answers storage ~engine ~translator query = expected)
               engines)
           translators)
    queries

let prop_edits_consistent =
  qtest ~count:120 "edited index agrees with oracle and rebuild" script_gen
    (fun (doc, edits, queries) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun storage ->
      List.iter (apply_edit storage) edits;
      agrees_with_oracle_and_rebuild storage queries)

(* ------------------------------------------------------------------ *)
(* Property: an insert moves one narrowest window of labels            *)

module Doc = Blas_xpath.Doc

let rec descendant_count (n : Doc.node) =
  List.fold_left (fun acc c -> acc + 1 + descendant_count c) 0 n.children

let rec element_count = function
  | Blas_xml.Types.Content _ -> 0
  | Blas_xml.Types.Element (_, kids) ->
    List.fold_left (fun acc k -> acc + element_count k) 1 kids

(* [target]'s ancestors-or-self, innermost first. *)
let chain_to (root : Doc.node) (target : Doc.node) =
  let rec go acc (n : Doc.node) =
    if n.start = target.start then n :: acc
    else
      go (n :: acc)
        (List.find
           (fun (c : Doc.node) -> c.start <= target.start && target.fin <= c.fin)
           n.children)
  in
  go [] root

(* Every label of [nodes] in label order, with its owner's index. *)
let label_sequence nodes =
  Array.to_list nodes
  |> List.mapi (fun i (n : Doc.node) -> [ (n.start, i); (n.fin, i) ])
  |> List.concat |> List.sort compare |> Array.of_list

(* The fewest labels any run of [labels] around the gap after
   [labels.(p)] can move and still fit [slots] more between its
   bounds, by brute force. *)
let narrowest_width labels ~p ~slots =
  let best = ref max_int in
  for s = 0 to p do
    for e = p to Array.length labels - 2 do
      if labels.(e + 1) - labels.(s) - 1 >= e - s + slots then best := min !best (e - s)
    done
  done;
  !best

(* Inserts [tree] at [(parent, pos)] (resolved as by [apply_edit]) and
   checks what moved against the pre-edit labels: the report counts
   the old nodes whose labels differ; the labels that changed form one
   run of the pre-edit sequence, at the insertion gap, inside the
   first ancestor with room, no longer than the narrowest run there
   that fits the subtree; and no more nodes moved than that ancestor's
   descendants (what renumbering the whole ancestor moved). *)
let insert_moves_one_window storage (parent, pos, tree) =
  let doc = Blas.Storage.doc storage in
  let old_nodes = Array.of_list doc.all in
  let parent = old_nodes.(parent mod Array.length old_nodes) in
  let nkids = List.length parent.children in
  let pos = pos mod (nkids + 1) in
  let k = element_count tree in
  let lo = if pos = 0 then parent.start else (List.nth parent.children (pos - 1)).fin in
  let anchor =
    List.find_opt
      (fun (a : Doc.node) -> a.fin - a.start - 1 >= 2 * (descendant_count a + k))
      (chain_to doc.root parent)
  in
  let report = Blas.Update.insert_subtree storage ~parent:parent.start ~pos tree in
  let doc' = Blas.Storage.doc storage in
  (* The parent keeps its document-order rank, and the new subtree is
     its [pos]-th child: the other nodes pair up with the old ones. *)
  let rank =
    let rec find i = if old_nodes.(i).start = parent.start then i else find (i + 1) in
    find 0
  in
  let sub = List.nth (List.nth doc'.all rank).children pos in
  let fresh = List.map (fun (n : Doc.node) -> n.start) (sub :: Doc.descendants sub) in
  let new_nodes =
    Array.of_list (List.filter (fun (n : Doc.node) -> not (List.mem n.start fresh)) doc'.all)
  in
  let same_tags =
    Array.length new_nodes = Array.length old_nodes
    && Array.for_all2 (fun (a : Doc.node) (b : Doc.node) -> a.tag = b.tag) old_nodes new_nodes
  in
  let moved =
    List.filter
      (fun i ->
        old_nodes.(i).start <> new_nodes.(i).start || old_nodes.(i).fin <> new_nodes.(i).fin)
      (List.init (Array.length old_nodes) Fun.id)
  in
  let seq = label_sequence old_nodes in
  let new_label i =
    let l, owner = seq.(i) in
    if l = old_nodes.(owner).start then new_nodes.(owner).start else new_nodes.(owner).fin
  in
  let changed = List.filter (fun i -> new_label i <> fst seq.(i)) (List.init (Array.length seq) Fun.id) in
  let window_ok =
    match (changed, anchor) with
    | [], _ -> true
    | _, None -> true (* the whole document was renumbered *)
    | _, Some anchor ->
      let a = List.hd changed and b = List.nth changed (List.length changed - 1) in
      let p =
        let rec find i = if fst seq.(i) = lo then i else find (i + 1) in
        find 0
      in
      let inside =
        Array.of_list
          (List.filter
             (fun l -> anchor.start <= l && l <= anchor.fin)
             (Array.to_list (Array.map fst seq)))
      in
      let p_inside =
        let rec find i = if inside.(i) = lo then i else find (i + 1) in
        find 0
      in
      a - 1 <= p && p <= b
      && anchor.start < fst seq.(a)
      && fst seq.(b) < anchor.fin
      && b - a + 1 <= narrowest_width inside ~p:p_inside ~slots:(2 * k)
      && report.nodes_relabeled <= descendant_count anchor
  in
  same_tags && report.nodes_relabeled = List.length moved && window_ok

let window_script_gen =
  let open QCheck2.Gen in
  let* doc = doc_gen in
  let* edits = list_size (int_range 0 4) edit_gen in
  let* inserts =
    list_size (int_range 1 3)
      (let* parent = nat and* pos = nat and* tree = tree_gen in
       return (parent, pos, tree))
  in
  let* queries = list_size (return 2) (query_gen ~wildcards:true ()) in
  return (doc, edits, inserts, queries)

let prop_insert_moves_one_window =
  qtest ~count:100 "an insert moves one narrowest window of labels" window_script_gen
    (fun (doc, edits, inserts, queries) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun storage ->
      List.iter (apply_edit storage) edits;
      List.for_all
        (fun ins ->
          insert_moves_one_window storage ins
          && agrees_with_oracle_and_rebuild storage queries)
        inserts)

let prop_persist_survives_edits =
  qtest ~count:60 "updated index survives save/load" script_gen
    (fun (doc, edits, queries) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun storage ->
      List.iter (apply_edit storage) edits;
      Test_util.with_db_copy storage (fun reloaded ->
          same_labels storage reloaded
          && List.for_all
               (fun query ->
                 Blas.oracle reloaded query = Blas.oracle storage query)
               queries))

(* One copy of the document: after every edit, the label columns the
   edits keep equal columns built from a fresh scan of SD, every SP row
   matches them (see [sp_matches_columns]), and the document model, a
   view of the columns, equals [Doc.of_root] of its own root (its node
   array, node list and guide counts).  Copies of the random document
   under one root make wide documents. *)
let wide_script_gen =
  let open QCheck2.Gen in
  let* doc = doc_gen and* copies = int_range 1 12 in
  let kids = match doc with Blas_xml.Types.Element (_, ks) -> ks | t -> [ t ] in
  let doc = Blas_xml.Types.Element ("r", List.concat (List.init copies (fun _ -> kids))) in
  let* edits = list_size (int_range 1 8) edit_gen in
  return (doc, edits)

let view_matches_its_root (d : Blas_xpath.Doc.t) =
  let r = Blas_xpath.Doc.of_root d.root in
  d.by_start = r.by_start && d.all = r.all
  && Blas_xml.Dataguide.path_counts d.guide = Blas_xml.Dataguide.path_counts r.guide

(* SP holds one row per row of the columns, each on its path's P-label
   in the guide, with the node's D-label and text. *)
let sp_matches_columns (s : Blas.Storage.t) =
  let c = Blas.Storage.columns s and guide = Blas.Storage.guide s in
  let sp = Blas_rel.Table.scan s.Blas.Storage.sp (Blas_rel.Counters.create ()) in
  let int tu k = Blas_rel.Value.to_int (Blas_rel.Tuple.get tu k) in
  List.length (List.sort_uniq compare (List.map (fun tu -> int tu 1) sp))
  = Blas_update.Columns.length c
  && List.length sp = Blas_update.Columns.length c
  && List.for_all
       (fun tu ->
         match Blas_update.Columns.find c (int tu 1) with
         | None -> false
         | Some i ->
           let r = Blas_update.Columns.row c i in
           Blas_xml.Dataguide.label guide r.path = Some (int tu 0)
           && r.fin = int tu 2 && r.level = int tu 3
           && Blas_rel.Tuple.get tu 4 = Blas_update.Layout.data_value r.data)
       sp

let prop_columns_follow_edits =
  qtest ~count:80 "edited columns equal a scan of SP" wide_script_gen
    (fun (doc, edits) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun storage ->
      List.for_all
        (fun edit ->
          apply_edit storage edit;
          Blas_update.Columns.equal (Blas.Storage.columns storage)
            (fst
               (Blas_update.Columns.of_sd
                  (Blas_rel.Table.scan storage.Blas.Storage.sd (Blas_rel.Counters.create ()))))
          && sp_matches_columns storage
          && view_matches_its_root (Blas.Storage.doc storage))
        edits)

(* Answers materialize from the label columns: on a database file, before
   and after an edit script, [node_at] and [materialize] give the
   in-memory storage's node and subtree for every start, each the node
   of a reference model (the parsed document's, then the whole view's
   after the edits), and [None] for a position no node starts at. *)
let prop_node_at_on_disk =
  qtest ~count:40 "node_at and materialize on a database file match memory" script_gen
    (fun (doc, edits, _) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun mem ->
      Test_util.with_temp_db @@ fun path ->
      Blas.Database.create ~path mem;
      Test_util.with_storage (Blas.Database.open_ ~mode:Blas.Database.Rw ~path ())
      @@ fun disk ->
      let agree (view : Blas_xpath.Doc.t) =
        let starts = List.map (fun (n : Blas_xpath.Doc.node) -> n.start) view.all in
        List.for_all
          (fun s ->
            let node = Blas.node_at disk s in
            node = Blas.node_at mem s && node = Blas_xpath.Doc.find_by_start view s)
          starts
        && Blas.materialize disk starts = Blas.materialize mem starts
        && List.for_all
             (fun s -> Blas.node_at disk s = None && Blas.node_at mem s = None)
             [ 0; view.root.fin ]
      in
      agree (Blas_xpath.Doc.of_tree doc)
      && begin
        List.iter
          (fun edit ->
            apply_edit mem edit;
            apply_edit disk edit)
          edits;
        agree (Blas.Storage.doc mem)
      end)

(* One representation: an in-memory storage and a database file of the
   same document, page size and codec cut the same data pages, so the
   same edit script leaves them with the same page counts (escalations
   included). *)
let page_counts (s : Blas.Storage.t) =
  List.map Blas_rel.Table.page_count [ s.Blas.Storage.sp; s.Blas.Storage.sd ]

let twin_gen =
  let open QCheck2.Gen in
  let* codec = oneofl Blas_rel.Codec.[ V1; V2 ] in
  let* doc = doc_gen in
  let* edits = list_size (int_range 1 6) edit_gen in
  let* queries = list_size (return 3) (query_gen ~wildcards:true ()) in
  return (codec, (doc, edits, queries))

let prop_memory_matches_database =
  qtest ~count:40 "memory storage and database file stay page-identical"
    twin_gen
    (fun (codec, (tree, edits, queries)) ->
      (* the index build's tables over 512-byte pages, so edits split
         pages *)
      let mem =
        Test_util.storage_of_columns ~page_size:512 ~codec (Test_util.columns_of_tree tree)
      in
      let path = Filename.temp_file "blas_twin_" ".blasdb" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ path; path ^ ".wal" ])
        (fun () ->
          Blas.Database.create ~page_size:512 ~codec ~path
            (Blas.Storage.of_tree ~codec tree);
          let disk =
            Blas.Database.open_ ~cache_pages:16 ~mode:Blas.Database.Rw ~path ()
          in
          Fun.protect
            ~finally:(fun () -> Blas.Storage.close disk)
            (fun () ->
              List.iter
                (fun edit ->
                  apply_edit mem edit;
                  apply_edit disk edit)
                edits;
              page_counts mem = page_counts disk
              && List.for_all
                   (fun query ->
                     let expected = Blas.oracle mem query in
                     List.for_all
                       (fun storage ->
                         List.for_all
                           (fun translator ->
                             List.for_all
                               (fun engine ->
                                 Blas.answers storage ~engine ~translator query
                                 = expected)
                               engines)
                           translators)
                       [ mem; disk ])
                   queries)))

(* A brand-new tag is one more path: its rows go in place, so the edit
   writes a page or two per table instead of reloading both (the
   parent's tag-inventory rebuild rewrote every page), and the edited
   tables answer like a fresh index of the edited document. *)
let test_new_tag_writes_in_place () =
  List.iter
    (fun codec ->
      let storage =
        Blas.Storage.of_tree ~codec (Blas_datagen.Protein.generate ~entries:40 ())
      in
      let pages = Blas_rel.Table.page_count storage.Blas.Storage.sp in
      (* D-label room at the front, so no renumbering muddies the
         page count *)
      ignore
        (Blas.Update.delete_subtree storage
           ~start:(start_of_tag storage "ProteinEntry" 0));
      let report =
        Blas.Update.insert_subtree storage ~parent:1 ~pos:0
          (Blas_xml.Types.Element ("brand-new", [ Blas_xml.Types.Content "x" ]))
      in
      check_int "no D-label moved" 0 report.nodes_relabeled;
      check_int "one P-label computed" 1 report.plabels_allocated;
      check_bool
        (Printf.sprintf "%s: a few of %d SP pages written"
           (Blas_rel.Codec.format_name codec) pages)
        true
        (report.pages_written <= 4 && pages > 4);
      let fresh =
        let doc = Blas.Storage.doc storage in
        Test_util.storage_of_columns ~codec (Test_util.columns_of_doc doc)
      in
      List.iter
        (fun q ->
          let q = Blas.query q in
          check_int_list "answers like a fresh index" (Blas.oracle fresh q)
            (Blas.answers storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q))
        [ "//brand-new"; "/ProteinDatabase/*"; "//protein//name" ])
    Blas_rel.Codec.[ V1; V2 ]

(* ------------------------------------------------------------------ *)
(* P-label gap exhaustion                                              *)

(* New paths into one P-label gap (see [Test_util.respread_edit]) on
   three storages given the same script — two in memory, one database
   file — until the gap runs out.  After every edit each answers like
   the oracle under every translator x engine; the three carry the
   same labels and report the same invalidation record; and the edit
   that respreads moves the labels of one run of consecutive paths
   only, with every SP row on its path's label. *)
let sp_rows_on_their_labels (s : Blas.Storage.t) =
  let guide = Blas.Storage.guide s in
  let path_of = Hashtbl.create 64 in
  List.iter
    (fun (n : Blas_xpath.Doc.node) -> Hashtbl.replace path_of n.start n.source_path)
    (all_nodes s);
  List.for_all
    (fun row ->
      let label = Blas_rel.Value.to_int (Blas_rel.Tuple.get row 0) in
      let start = Blas_rel.Value.to_int (Blas_rel.Tuple.get row 1) in
      Blas_xml.Dataguide.label guide (Hashtbl.find path_of start) = Some label)
    (Blas_rel.Table.scan s.Blas.Storage.sp (Blas_rel.Counters.create ()))

(* The paths whose label moved form one run of the reversed-path order:
   between the first and the last of them, no path kept its label. *)
let moved_one_run ~before ~after =
  let moved = Blas_xml.Dataguide.relabeled ~before ~after in
  let kept =
    List.filter_map
      (fun (path, _, label) ->
        match Blas_xml.Dataguide.label after path with
        | Some l when l = label -> Some label
        | _ -> None)
      (Blas_xml.Dataguide.entries before)
  in
  match moved with
  | [] -> false
  | (first, _) :: _ ->
    let last = fst (List.nth moved (List.length moved - 1)) in
    List.for_all (fun l -> l < first || l > last) kept

let test_plabel_respread () =
  let xml = "<r><a>x</a><z>y</z></r>" in
  let mem = storage_of xml and twin = storage_of xml in
  Test_util.with_temp_db (fun path ->
      Blas.Database.create ~page_size:512 ~path (storage_of xml);
      let disk = Blas.Database.open_ ~cache_pages:16 ~mode:Blas.Database.Rw ~path () in
      let queries = [ "/r/*"; "//z"; "//mm"; "/r/mmm"; "//a" ] in
      let rec go k respreads =
        if k > 40 || respreads > 1 then respreads
        else begin
          let before = Blas.Storage.guide mem in
          let records =
            List.map
              (fun s ->
                Blas_server.Proto.invalidation_to_string
                  (Test_util.respread_edit s k).Blas.Update.invalidation)
              [ mem; twin; disk ]
          in
          let after = Blas.Storage.guide mem in
          check_bool "one invalidation record" true
            (List.for_all (String.equal (List.hd records)) records);
          check_bool "one labeling" true
            (List.for_all
               (fun s ->
                 Blas_xml.Dataguide.entries (Blas.Storage.guide s)
                 = Blas_xml.Dataguide.entries after)
               [ twin; disk ]);
          let respread = Blas_xml.Dataguide.relabeled ~before ~after <> [] in
          if respread then begin
            check_bool "the respread moves one run of paths" true
              (moved_one_run ~before ~after);
            check_bool "a respread flushes the caches" true
              (String.starts_with ~prefix:"full=1" (List.hd records))
          end;
          List.iter
            (fun s ->
              check_bool "every SP row on its path's label" true
                (sp_rows_on_their_labels s);
              List.iter
                (fun q ->
                  let q = Blas.query q in
                  let expected = Blas.oracle s q in
                  List.iter
                    (fun translator ->
                      List.iter
                        (fun engine ->
                          check_int_list
                            (Printf.sprintf "edit %d, %s/%s" k
                               (Blas.translator_name translator)
                               (Blas.engine_name engine))
                            expected
                            (Blas.answers s ~engine ~translator q))
                        engines)
                    translators)
                queries)
            [ mem; disk ];
          go (k + 1) (if respread then respreads + 1 else respreads)
        end
      in
      check_bool "the gap ran out" true (go 1 0 > 0);
      let labels = Blas_xml.Dataguide.entries (Blas.Storage.guide disk) in
      Blas.Storage.close disk;
      let reopened = Blas.Database.open_ ~mode:Blas.Database.Ro ~path () in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close reopened)
        (fun () ->
          check_bool "labels survive a reopen" true
            (labels = Blas_xml.Dataguide.entries (Blas.Storage.guide reopened));
          List.iter
            (fun q ->
              let q = Blas.query q in
              check_int_list "reopened answers" (Blas.oracle mem q)
                (Blas.answers reopened ~engine:Blas.Rdbms ~translator:Blas.Auto2 q))
            queries))

(* D-label spreading in native ints against the exact product. *)
let prop_spread_exact =
  let gen =
    QCheck2.Gen.(
      let* slots = int_range 1 5000 in
      let* lo = int_range (-1000) 1000 in
      let* gap = oneof [ int_range slots (slots * 8); int_range slots (max_int - 2000) ] in
      return (lo, gap, slots))
  in
  qtest ~count:300 "spread matches the exact gap * i / slots" gen
    (fun (lo, gap, slots) ->
      let exact i =
        match
          Bignum.to_int_opt (Bignum.div_int (Bignum.mul_int (Bignum.of_int gap) i) slots)
        with
        | Some offset -> lo + 1 + offset
        | None -> assert false
      in
      Blas_update.Gap_alloc.spread ~lo ~hi:(lo + gap + 1) ~slots
      = Array.init slots exact)

(* ------------------------------------------------------------------ *)
(* The expansion bound                                                 *)

(* An edited document (82 nodes, 5 tags) found by the edit property.
   Over its recursive schema the full (Unfold) expansion of
   [explosive_query] has 221,052 branches: enumerating them took
   seconds and their SQL did not finish executing within a minute. *)
let explosive_doc =
  String.concat ""
    [
      "<r><c>y<d>x<a><b>y<d>y<a>y<d><a/><c>y</c></d></a></d><b><c>y<a>y";
      "</a></c><c>x<c>x</c><c>y</c><b>x</b></c><a>x<c>y</c></a></b><d>y";
      "<b>y<a>y</a></b><a>y<d>x</d></a><d>x<d>y</d><b>x</b><d>x</d></d>";
      "</d></b><c>x</c></a><a>x<b><b>x<b>y<a>y<b>y</b><a>x</a><b>x</b>";
      "</a></b><d>y<d>y</d><a>y</a><d/></d></b></b><a>x</a><d>y<b>y<b>x";
      "<c>y</c><c>x</c></b><c>x<d>x</d></c></b><d>y<b><c>y</c></b><b>x";
      "<d>y</d><b>y</b><b>x</b></b></d></d><c>x</c></a></d><d>x<c>y<d>x";
      "</d></c></d><d>y<d>x<d>x<c/><a>x</a></d></d><c><c>y<a>x</a><c>x";
      "</c><b>y</b></c></c><b>y<c>y</c><b/></b></d><b>x<d>y<d>x</d><b>y";
      "</b></d></b></c><c>x<c>x<d/></c><c>y<c>y</c></c></c></r>";
    ]

let explosive_query = {|//c/*[//*][//d]/*[//a][//a]/* != "x"|}

(* Past [Decompose.expansion_bound], Auto2 prices no Unfold candidate
   and an explicit Unfold keeps the [//] edges, as Push-up does: every
   translator x engine still answers like the oracle. *)
let test_expansion_bound () =
  let storage = storage_of explosive_doc in
  let query = Blas.query explosive_query in
  check_bool "Unfold past the bound" true
    (Option.is_none
       (Blas.Decompose.unfold_opt (Blas.Storage.guide storage) query));
  let choice = Blas.Optimizer.choose storage query in
  check_bool "Auto2 prices no Unfold" true
    (List.for_all
       (fun cd ->
         cd.Blas.Optimizer.Planner.cd_translator
         <> Blas.Optimizer.Planner.Unfold)
       choice.Blas.Optimizer.ch_candidates);
  let expected = Blas.oracle storage query in
  check_bool "the oracle finds answers" true (expected <> []);
  List.iter
    (fun translator ->
      List.iter
        (fun engine ->
          check_int_list
            (Printf.sprintf "%s/%s"
               (Blas.translator_name translator)
               (Blas.engine_name engine))
            expected
            (Blas.answers storage ~engine ~translator query))
        engines)
    translators

let suite =
  [
    Alcotest.test_case "explosive Unfold expansion stays bounded" `Quick
      test_expansion_bound;
    Alcotest.test_case "insert into freed gap" `Quick test_insert_into_gap;
    Alcotest.test_case "gap exhaustion: localized relabel" `Quick
      test_localized_relabel;
    Alcotest.test_case "gap exhaustion: whole-document relabel" `Quick
      test_whole_document_relabel;
    Alcotest.test_case "gap exhaustion: narrowest window relabel" `Quick
      test_window_relabel;
    Alcotest.test_case "new tag relabels nothing" `Quick
      test_new_tag_relabels_nothing;
    Alcotest.test_case "depth growth relabels nothing" `Quick
      test_depth_growth_relabels_nothing;
    Alcotest.test_case "delete subtree" `Quick test_delete_subtree;
    Alcotest.test_case "replace text" `Quick test_replace_text;
    Alcotest.test_case "invalid arguments" `Quick test_errors;
    Alcotest.test_case "persist round-trip after edits" `Quick
      test_persist_round_trip;
    Alcotest.test_case "new tag writes pages in place" `Quick
      test_new_tag_writes_in_place;
    Alcotest.test_case "gap exhaustion: P-label respread" `Quick
      test_plabel_respread;
    prop_spread_exact;
    prop_edits_consistent;
    prop_insert_moves_one_window;
    prop_columns_follow_edits;
    prop_node_at_on_disk;
    prop_persist_survives_edits;
    prop_memory_matches_database;
  ]
