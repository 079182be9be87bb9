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
  check_bool "no inventory rebuild" false ins.table_rebuilt;
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
  check_bool "no inventory rebuild" false report.table_rebuilt;
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

let test_new_tag_rebuilds_inventory () =
  let storage = storage_of "<r><a/></r>" in
  let report =
    Blas.Update.insert_subtree storage ~parent:1 ~pos:1
      (Blas_xml.Types.Element ("zzz", []))
  in
  check_bool "new tag forces inventory rebuild" true report.table_rebuilt;
  check_bool "every plabel recomputed" true
    (report.plabels_allocated >= Blas.Storage.node_count storage);
  check_int "query finds the new tag" 1
    (List.length (Blas.oracle storage (Blas.query "/r/zzz")))

let test_depth_growth_rebuilds_inventory () =
  let storage = storage_of "<r><a/></r>" in
  let deep =
    Blas_xml.Types.(Element ("a", [ Element ("b", [ Element ("a", []) ]) ]))
  in
  let report = Blas.Update.insert_subtree storage ~parent:1 ~pos:0 deep in
  check_bool "depth growth forces inventory rebuild" true report.table_rebuilt;
  check_int "deep path reachable" 1
    (List.length (Blas.oracle storage (Blas.query "/r/a/b/a")))

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

let same_inventory (a : Blas.Storage.t) (b : Blas.Storage.t) =
  Blas_label.Tag_table.tags a.table = Blas_label.Tag_table.tags b.table
  && Blas_label.Tag_table.height a.table = Blas_label.Tag_table.height b.table

(* Edits keep retired tags, so the stored inventory may list tags the
   instance no longer has. *)
let inventory_exceeds_instance (s : Blas.Storage.t) =
  List.length (Blas_label.Tag_table.tags s.table)
  > List.length (Blas_xml.Dataguide.distinct_tags (Blas.Storage.guide s))

let test_persist_round_trip () =
  let storage = storage_of "<r><a>x</a><b/></r>" in
  ignore
    (Blas.Update.insert_subtree storage ~parent:1 ~pos:2
       (Blas_xml.Types.Element ("c", [ Blas_xml.Types.Content "y" ])));
  let b = start_of_tag storage "b" 0 in
  ignore (Blas.Update.delete_subtree storage ~start:b);
  Test_util.with_db_copy storage (fun reloaded ->
      (* A database preserves positions exactly, so answers match on raw
         starts; the reloaded inventory must honour the updated one,
         which still lists the deleted b. *)
      check_bool "inventory kept" true (same_inventory storage reloaded);
      check_bool "strictly contains the instance's" true
        (inventory_exceeds_instance reloaded);
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

let prop_edits_consistent =
  qtest ~count:120 "edited index agrees with oracle and rebuild" script_gen
    (fun (doc, edits, queries) ->
      let storage = Blas.index_of_tree doc in
      List.iter (apply_edit storage) edits;
      let scratch = rebuilt_from_scratch storage in
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
        queries)

let prop_persist_survives_edits =
  qtest ~count:60 "updated index survives save/load" script_gen
    (fun (doc, edits, queries) ->
      let storage = Blas.index_of_tree doc in
      List.iter (apply_edit storage) edits;
      Test_util.with_db_copy storage (fun reloaded ->
          same_inventory storage reloaded
          && List.for_all
               (fun query ->
                 Blas.oracle reloaded query = Blas.oracle storage query)
               queries))

(* The incremental document model: after every edit, the model an edit
   produced equals the one [Doc.of_root] rebuilds from its root — runs
   flattened, every start found, the same DataGuide paths and counts —
   and the model from before the edit still equals its own rebuild.
   Copies of the random document under one root make models of several
   [by_start] runs. *)
let model_matches_rebuild (d : Blas_xpath.Doc.t) =
  let module Doc = Blas_xpath.Doc in
  let r = Doc.of_root d.root in
  let flat (m : Doc.t) = Array.concat (Array.to_list m.by_start) in
  let guide_counts (m : Doc.t) = Blas_xml.Dataguide.path_counts m.guide in
  Array.for_all (fun run -> Array.length run > 0) d.by_start
  && flat d = flat r && d.all = r.all
  && List.for_all (fun (n : Doc.node) -> Doc.find_by_start d n.start = Some n) r.all
  && Doc.node_count d = List.length r.all
  && guide_counts d = guide_counts r

let wide_script_gen =
  let open QCheck2.Gen in
  let* doc = doc_gen and* copies = int_range 1 12 in
  let kids = match doc with Blas_xml.Types.Element (_, ks) -> ks | t -> [ t ] in
  let doc = Blas_xml.Types.Element ("r", List.concat (List.init copies (fun _ -> kids))) in
  let* edits = list_size (int_range 1 8) edit_gen in
  return (doc, edits)

let prop_incremental_model =
  qtest ~count:80 "incremental document model equals a rebuild" wide_script_gen
    (fun (doc, edits) ->
      let storage = Blas.index_of_tree doc in
      List.for_all
        (fun edit ->
          let before = Blas.Storage.doc storage in
          apply_edit storage edit;
          model_matches_rebuild (Blas.Storage.doc storage) && model_matches_rebuild before)
        edits)

(* A big insert, then a run of deletes: rebuilt [by_start] runs split
   when they outgrow a run and fold in their neighbour when a delete
   leaves them short. *)
let test_model_runs () =
  let item i = Printf.sprintf "<a>%s</a>" (String.concat "" (List.init 30 (fun j -> Printf.sprintf "<b>%d</b>" (i + j)))) in
  let storage = storage_of ("<r>" ^ String.concat "" (List.init 20 item) ^ "</r>") in
  let check () =
    check_bool "model equals its rebuild" true
      (model_matches_rebuild (Blas.Storage.doc storage))
  in
  let big = Blas_xml.Dom.parse ("<c>" ^ String.concat "" (List.init 300 (fun _ -> "<d/>")) ^ "</c>") in
  ignore (Blas.Update.insert_subtree storage ~parent:1 ~pos:20 big);
  check ();
  for _ = 1 to 18 do
    ignore (Blas.Update.delete_subtree storage ~start:(start_of_tag storage "a" 0));
    check ()
  done;
  ignore (Blas.Update.delete_subtree storage ~start:(start_of_tag storage "c" 0));
  check ()

(* A text edit copies only its node and that node's ancestors: every
   other node of the new model is the old record itself. *)
let test_retext_copies_only_the_spine () =
  let module Doc = Blas_xpath.Doc in
  let storage =
    storage_of "<r><a><b>1</b><c><d>2</d><d>3</d></c></a><a><b>4</b></a><e>5</e></r>"
  in
  let old = Blas.Storage.doc storage in
  let target = start_of_tag storage "d" 1 in
  ignore (Blas.Update.replace_text storage ~start:target (Some "x"));
  let fresh = Blas.Storage.doc storage in
  let on_spine (n : Doc.node) =
    let t = Option.get (Doc.find_by_start old target) in
    n.start <= t.start && t.fin <= n.fin
  in
  check_int "same node count" (Doc.node_count old) (Doc.node_count fresh);
  List.iter2
    (fun (o : Doc.node) (n : Doc.node) ->
      if on_spine o then check_bool "spine node is a new record" false (o == n)
      else check_bool "off-spine node is shared" true (o == n))
    old.all fresh.all;
  check_bool "old model unchanged" true
    ((Option.get (Doc.find_by_start old target)).data = Some "3");
  check_bool "new model edited" true
    ((Option.get (Doc.find_by_start fresh target)).data = Some "x")

(* One representation: an in-memory storage and a database file of the
   same document, page size and codec cut the same data pages, so the
   same edit script leaves them with the same page counts (escalations
   included: deeper paths in [tree_gen] rebuild the inventory).  Index
   leaves are not compared: their entries carry page ids, which the
   file numbers differently (it reuses its free list and catalog
   pages), and v2 leaves compress those ids. *)
let page_counts (s : Blas.Storage.t) =
  List.map Blas_rel.Table.page_count [ s.Blas.Storage.sp; s.Blas.Storage.sd ]

let twin_gen =
  let open QCheck2.Gen in
  let* codec = oneofl Blas_rel.Codec.[ V1; V2 ] in
  let* doc = doc_gen in
  let* edits = list_size (int_range 1 6) edit_gen in
  (* no wildcards: Unfold's expansion of [*] steps over a recursive
     schema can reach thousands of branches, which a 16-page pool of
     512-byte pages turns into seconds per query *)
  let* queries = list_size (return 3) (query_gen ()) in
  return (codec, (doc, edits, queries))

let prop_memory_matches_database =
  qtest ~count:40 "memory storage and database file stay page-identical"
    twin_gen
    (fun (codec, (tree, edits, queries)) ->
      let doc () = Blas_xpath.Doc.of_tree tree in
      (* [Storage.of_doc] over 512-byte pages, so edits split pages *)
      let mem =
        let doc = doc () in
        let store = Blas_rel.Page_store.memory ~page_size:512 ~codec () in
        let table = Blas_label.Tag_table.of_dataguide doc.guide in
        let sp, sd = Blas_update.Layout.tables store table doc in
        Blas.Storage.assemble ~codec ~build_doc:(fun () -> doc) ~guide:doc.guide
          ~table ~sp ~sd ~pool:store.Blas_rel.Page_store.pool ()
      in
      let path = Filename.temp_file "blas_twin_" ".blasdb" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ path; path ^ ".wal" ])
        (fun () ->
          Blas.Database.create ~page_size:512 ~codec ~path
            (Blas.Storage.of_doc ~codec (doc ()));
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

(* A tag-inventory rebuild reloads SP and SD with the bulk loader, so
   the edited tables are cut exactly like a fresh index of the edited
   document. *)
let test_rebuild_page_counts () =
  List.iter
    (fun codec ->
      let storage =
        Blas.Storage.of_doc ~codec
          (Blas_xpath.Doc.of_tree (Blas_datagen.Protein.generate ~entries:40 ()))
      in
      let report =
        Blas.Update.insert_subtree storage ~parent:1 ~pos:0
          (Blas_xml.Types.Element ("brand-new", [ Blas_xml.Types.Content "x" ]))
      in
      check_bool "inventory rebuilt" true report.table_rebuilt;
      let fresh = Blas.Storage.of_doc ~codec (Blas.Storage.doc storage) in
      List.iter
        (fun (name, edited, fresh) ->
          check_int
            (Printf.sprintf "%s %s pages" (Blas_rel.Codec.format_name codec) name)
            (Blas_rel.Table.page_count fresh)
            (Blas_rel.Table.page_count edited))
        [
          ("sp", storage.Blas.Storage.sp, fresh.Blas.Storage.sp);
          ("sd", storage.Blas.Storage.sd, fresh.Blas.Storage.sd);
        ])
    Blas_rel.Codec.[ V1; V2 ]

(* ------------------------------------------------------------------ *)

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
    Alcotest.test_case "new tag rebuilds inventory" `Quick
      test_new_tag_rebuilds_inventory;
    Alcotest.test_case "depth growth rebuilds inventory" `Quick
      test_depth_growth_rebuilds_inventory;
    Alcotest.test_case "delete subtree" `Quick test_delete_subtree;
    Alcotest.test_case "replace text" `Quick test_replace_text;
    Alcotest.test_case "replace text copies only the spine" `Quick
      test_retext_copies_only_the_spine;
    Alcotest.test_case "document model runs split and merge" `Quick
      test_model_runs;
    Alcotest.test_case "invalid arguments" `Quick test_errors;
    Alcotest.test_case "persist round-trip after edits" `Quick
      test_persist_round_trip;
    Alcotest.test_case "rebuild pages match a fresh index" `Quick
      test_rebuild_page_counts;
    prop_edits_consistent;
    prop_incremental_model;
    prop_persist_survives_edits;
    prop_memory_matches_database;
  ]
