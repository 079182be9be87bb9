(** Tests for the query cache ({!Blas.Cache} / {!Blas_cache}).

    Three layers are covered: the lock-striped LRU and the P-interval
    scan layer as units, the cached execution pipeline end to end (warm
    answers bit-identical to cold, memo hits with zero I/O, one scan
    entry shared by both engines), and the update-aware invalidation
    protocol — one rule, a touched P-label inside an entry's interval —
    including the coherence property that interleaves random edit
    scripts with repeated queries across every suffix-path translator
    and both engines, and a stress run that hammers one cache from
    several domains and then checks its internal accounting.  The plan
    memo is covered by a property that compares every memoized plan
    with a fresh one across random edit scripts, in memory and on disk,
    and by a check that a repeated run plans nothing. *)

open Test_util
module Cache = Blas.Cache
module Stats = Blas_cache.Stats
module Lru = Blas_cache.Lru

let suffix_translators = Blas.[ Split; Pushup; Unfold ]

let engines = Blas.[ Rdbms; Twig ]

let par_jobs =
  match Sys.getenv_opt "BLAS_TEST_JOBS" with
  | None | Some "" -> [ 4 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* LRU unit tests                                                      *)

let test_lru_basics () =
  let t = Lru.create ~stripes:1 ~capacity_bytes:1000 ~weight:String.length () in
  check_bool "miss on empty" true (Lru.find t 1 = None);
  Lru.put t 1 "abc";
  check_bool "hit" true (Lru.find t 1 = Some "abc");
  check_int "bytes" 3 (Lru.bytes_used t);
  Lru.put t 1 "abcdef";
  check_bool "replaced" true (Lru.find t 1 = Some "abcdef");
  check_int "bytes after replace" 6 (Lru.bytes_used t);
  Lru.remove t 1;
  check_int "empty again" 0 (Lru.length t);
  Lru.validate t

let test_lru_eviction_prefers_low_benefit () =
  (* One stripe, room for ~10 bytes: the low-benefit entry must go
     first when a new admission overflows the budget. *)
  let t = Lru.create ~stripes:1 ~capacity_bytes:10 ~weight:String.length () in
  Lru.put t ~benefit:100 "hot" "aaaa";
  Lru.put t ~benefit:1 "cold" "bbbb";
  Lru.put t ~benefit:50 "new" "cccc";
  check_bool "high-benefit entry survives" true (Lru.mem t "hot");
  check_bool "low-benefit entry evicted" false (Lru.mem t "cold");
  let s = Stats.snapshot (Lru.stats t) in
  check_int "one eviction" 1 s.Stats.evictions;
  Lru.validate t

let test_lru_oversized_rejected () =
  let t = Lru.create ~stripes:1 ~capacity_bytes:4 ~weight:String.length () in
  Lru.put t "big" "way too wide";
  check_int "not admitted" 0 (Lru.length t);
  Lru.put t ~benefit:0 "zero" "ab";
  check_int "zero benefit not admitted" 0 (Lru.length t)

let test_lru_filter_in_place () =
  let t = Lru.create ~weight:String.length () in
  List.iter (fun k -> Lru.put t k (string_of_int k)) [ 1; 2; 3; 4; 5 ];
  let removed = Lru.filter_in_place t (fun k _ -> k mod 2 = 0) in
  check_int "three removed" 3 removed;
  check_int "two left" 2 (Lru.length t);
  let s = Stats.snapshot (Lru.stats t) in
  check_int "counted as invalidations" 3 s.Stats.invalidations;
  Lru.validate t

(* ------------------------------------------------------------------ *)
(* Scan layer unit tests                                               *)

(* Tuples in the SP layout (plabel, start, end, level, data). *)
let sp_tuple ~plabel ~start ~fin =
  Blas_rel.Tuple.of_list
    [
      Blas_rel.Value.Int plabel;
      Blas_rel.Value.Int start;
      Blas_rel.Value.Int fin;
      Blas_rel.Value.Int 1;
      Blas_rel.Value.Null;
    ]

let sp_cols = [ "plabel"; "start"; "end"; "level"; "data" ]

let iv lo hi = (lo, hi)

let scan_stats qc = (Cache.stats qc).Cache.streams

let test_semantic_exact_hit () =
  let qc = Cache.create () in
  Cache.put_scan qc (iv 0 10) ~benefit:3 ~cols:sp_cols [ sp_tuple ~plabel:5 ~start:1 ~fin:2 ];
  (match Cache.find_scan qc (iv 0 10) ~cols:sp_cols with
  | Some (_, r) -> check_int "exact rows returned" 1 (List.length r)
  | None -> Alcotest.fail "expected exact hit");
  check_bool "a contained interval misses" true
    (Cache.find_scan qc (iv 4 9) ~cols:sp_cols = None);
  check_bool "a covering interval misses" true
    (Cache.find_scan qc (iv 0 11) ~cols:sp_cols = None);
  let s = scan_stats qc in
  check_int "one hit" 1 s.Stats.hits;
  check_int "two misses" 2 s.Stats.misses

(* An entry serves a probe for a subset of its columns, as it is, and
   misses one for a column it lacks; the fetch that follows the miss
   replaces it. *)
let test_scan_columns_cover () =
  let qc = Cache.create () in
  let cols = [ "start"; "end"; "level" ] in
  let row = Blas_rel.Tuple.of_list Blas_rel.Value.[ Int 1; Int 2; Int 3 ] in
  Cache.put_scan qc (iv 0 10) ~benefit:3 ~cols [ row ];
  (match Cache.find_scan qc (iv 0 10) ~cols:[ "start"; "level" ] with
  | Some (held, [ t ]) ->
    check_bool "the entry's columns" true (held = cols);
    check_bool "the entry's row, shared" true (t == row)
  | _ -> Alcotest.fail "expected a covered hit");
  check_bool "a missing column misses" true
    (Cache.find_scan qc (iv 0 10) ~cols:[ "start"; "data" ] = None);
  let s = scan_stats qc in
  check_int "one hit" 1 s.Stats.hits;
  check_int "one miss" 1 s.Stats.misses;
  let fetched = ref [] in
  let held, _ =
    Cache.scan qc (iv 0 10)
      ~table_cols:[ "plabel"; "start"; "end"; "level"; "data" ]
      ~cols:[ "start"; "data" ] ~benefit:(fun _ -> 3)
      ~fetch:(fun wide ->
        fetched := wide;
        [ Blas_rel.Tuple.of_list Blas_rel.Value.[ Int 1; Int 2; Int 3; Str "x" ] ])
  in
  check_bool "a miss reads every column but the P-label" true
    (!fetched = [ "start"; "end"; "level"; "data" ] && held = !fetched);
  check_int "replaced, not added" 1 (scan_stats qc).Stats.entries;
  check_bool "the replacement serves the narrower probe" true
    (Cache.find_scan qc (iv 0 10) ~cols:[ "level" ] <> None)

let test_semantic_invalidate () =
  let qc = Cache.create () in
  Cache.put_scan qc (iv 0 10) ~benefit:3 ~cols:sp_cols
    [ sp_tuple ~plabel:5 ~start:10 ~fin:20 ];
  Cache.put_scan qc (iv 20 30) ~benefit:3 ~cols:sp_cols
    [ sp_tuple ~plabel:25 ~start:50 ~fin:60 ];
  let edit plabels =
    Cache.invalidate qc ~full:false ~schema_changed:false
      ~plabels
  in
  (* A P-label inside the first interval kills only the first entry. *)
  edit [ 7 ];
  check_int "one entry died by plabel" 1 (scan_stats qc).Stats.invalidations;
  check_int "one survives" 1 (scan_stats qc).Stats.entries;
  check_bool "the other interval's entry survives" true
    (Cache.find_scan qc (iv 20 30) ~cols:sp_cols <> None);
  (* An edit inside the survivor's D-window (say 55..58) whose P-label
     lies outside its interval kills nothing. *)
  edit [ 40 ];
  check_int "a D-window kills nothing" 1 (scan_stats qc).Stats.invalidations;
  check_int "still one entry" 1 (scan_stats qc).Stats.entries;
  Cache.validate qc

(* ------------------------------------------------------------------ *)
(* Cached pipeline end to end                                          *)

let storage_of s = Blas.index s

let doc_xml =
  "<r><a><b>x</b><b>y</b></a><a><b>x</b></a><c><b>z</b></c><c>w</c></r>"

let test_warm_equals_cold () =
  let storage = storage_of doc_xml in
  List.iter
    (fun translator ->
      List.iter
        (fun engine ->
          List.iter
            (fun qs ->
              let q = Blas.query qs in
              let cold =
                (Blas.run ~cache:false storage ~engine ~translator q).Blas.starts
              in
              let warm1 =
                (Blas.run ~cache:true storage ~engine ~translator q).Blas.starts
              in
              let warm2 =
                (Blas.run ~cache:true storage ~engine ~translator q).Blas.starts
              in
              let where =
                Printf.sprintf "%s %s %s"
                  (Blas.translator_name translator)
                  (Blas.engine_name engine) qs
              in
              check_int_list (where ^ ": warm fill = cold") cold warm1;
              check_int_list (where ^ ": warm hit = cold") cold warm2)
            [ "//b"; "/r/a/b"; "//b = \"x\""; "//a[b = \"x\"]"; "/r/*/b" ])
        engines)
    suffix_translators;
  Cache.validate (Blas.Storage.cache storage)

let test_memo_hit_zero_io () =
  let storage = storage_of doc_xml in
  let q = Blas.query "//a/b" in
  let translator = Blas.Pushup and engine = Blas.Rdbms in
  let cold = Blas.run ~cache:true storage ~engine ~translator q in
  check_bool "cold run touches storage" true (cold.Blas.visited > 0);
  let warm = Blas.run ~cache:true storage ~engine ~translator q in
  check_int_list "same answers" cold.Blas.starts warm.Blas.starts;
  check_int "memo hit reads nothing" 0 warm.Blas.visited;
  check_int "memo hit pages nothing" 0 warm.Blas.page_reads;
  let s = Blas.Storage.cache_stats storage in
  check_bool "a result hit was recorded" true (s.Cache.results.Stats.hits >= 1)

(* The two engines share one scan entry per P-interval: an RDBMS run of
   a value-predicate query leaves pre-predicate rows that a twig run of
   the same query hits exactly. *)
let test_rdbms_scans_serve_twig () =
  let storage = storage_of doc_xml in
  let q = Blas.query "//a[b = \"x\"]" in
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q);
  let before = scan_stats (Blas.Storage.cache storage) in
  let twig =
    Blas.run ~cache:true storage ~engine:Blas.Twig ~translator:Blas.Pushup q
  in
  let d =
    Stats.diff ~before ~after:(scan_stats (Blas.Storage.cache storage))
  in
  check_int "both streams hit exactly" 2 d.Stats.hits;
  check_int "no misses" 0 d.Stats.misses;
  check_int "nothing read" 0 twig.Blas.visited;
  check_int_list "answers" (Blas.oracle storage q) twig.Blas.starts

let test_cache_disabled_by_default () =
  let storage = storage_of doc_xml in
  let q = Blas.query "//a/b" in
  ignore (Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q);
  ignore (Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q);
  let tot = Cache.totals (Blas.Storage.cache_stats storage) in
  check_int "no lookups with cache off" 0 (tot.Stats.hits + tot.Stats.misses);
  check_int "nothing stored" 0 tot.Stats.entries

(* ------------------------------------------------------------------ *)
(* Update-aware invalidation                                           *)

let first_start_of_tag storage tag =
  (List.find
     (fun (n : Blas_xpath.Doc.node) -> n.Blas_xpath.Doc.tag = tag)
     (Blas.Storage.doc storage).Blas_xpath.Doc.all)
    .Blas_xpath.Doc.start

(** Every suffix translator x engine on the (possibly cached) storage
    must agree with the naive oracle. *)
let oracle_check storage q =
  let expected = Blas.oracle storage q in
  List.iter
    (fun translator ->
      List.iter
        (fun engine ->
          check_int_list
            (Printf.sprintf "post-edit %s/%s"
               (Blas.translator_name translator)
               (Blas.engine_name engine))
            expected
            (Blas.run ~cache:true storage ~engine ~translator q).Blas.starts)
        engines)
    suffix_translators

let test_invalidation_on_edit () =
  let storage = storage_of doc_xml in
  let qa = Blas.query "//a/b" and qc = Blas.query "//c" in
  let warm q =
    ignore
      (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q);
    ignore
      (Blas.run ~cache:true storage ~engine:Blas.Twig ~translator:Blas.Pushup q)
  in
  warm qa;
  warm qc;
  (* Re-text a b node: //a/b entries must die, //c entries survive. *)
  let b_start = first_start_of_tag storage "b" in
  let before = Blas.Storage.cache_stats storage in
  ignore (Blas.Update.replace_text storage ~start:b_start (Some "q"));
  let after = Blas.Storage.cache_stats storage in
  check_bool "some entries were invalidated" true
    ((Cache.totals (Cache.diff_stats ~before ~after)).Stats.invalidations > 0);
  (* //c still hits (its footprint was untouched)... *)
  let before = Blas.Storage.cache_stats storage in
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Pushup qc);
  let after = Blas.Storage.cache_stats storage in
  check_bool "untouched query still served from cache" true
    ((Cache.totals (Cache.diff_stats ~before ~after)).Stats.hits > 0);
  (* ... and the edited query returns the new truth. *)
  oracle_check storage qa;
  oracle_check storage qc

let test_new_tag_schema_epoch () =
  let storage = storage_of doc_xml in
  let q = Blas.query "//b" in
  (* Room in the D-labels under the root, so the insert below moves no
     existing label of either kind. *)
  ignore
    (Blas.Update.delete_subtree storage ~start:(first_start_of_tag storage "c"));
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q);
  (* A new tag is one more path: its nodes take free P-labels and no
     other label moves, so the edit invalidates through the schema
     epoch (results) and the new labels (scans), not a flush. *)
  let before = Blas.Storage.guide storage in
  let report =
    Blas.Update.insert_subtree storage ~parent:1 ~pos:2
      (Blas_xml.Types.Element
         ("zz", [ Blas_xml.Types.Element ("b", [ Blas_xml.Types.Content "n" ]) ]))
  in
  check_bool "no P-label moved" true
    (Blas_xml.Dataguide.relabeled ~before ~after:(Blas.Storage.guide storage)
    = []);
  check_int "no D-label moved" 0 report.Blas.Update.nodes_relabeled;
  check_bool "no full invalidation" false
    report.Blas.Update.invalidation.Blas.Update.inv_full;
  check_bool "schema changed" true
    report.Blas.Update.invalidation.Blas.Update.inv_schema_changed;
  check_int "result memo dropped" 0
    (Cache.stats (Blas.Storage.cache storage)).Cache.results.Stats.entries;
  oracle_check storage q;
  oracle_check storage (Blas.query "//zz/b")

let test_unfold_survives_guide_change () =
  (* Unfold decompositions depend on the DataGuide: an insert that
     materializes a previously-absent path must flush the result memo,
     whose footprint covers only the old decomposition's branches. *)
  let storage = storage_of "<r><a><b>x</b></a><c>w</c></r>" in
  let q = Blas.query "//b" in
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Unfold q);
  let report =
    Blas.Update.insert_subtree storage
      ~parent:(first_start_of_tag storage "c") ~pos:0
      (Blas_xml.Types.Element ("b", [ Blas_xml.Types.Content "fresh" ]))
  in
  check_bool "guide change detected" true
    report.Blas.Update.invalidation.Blas.Update.inv_schema_changed;
  oracle_check storage q

let test_delete_invalidates () =
  let storage = storage_of doc_xml in
  let q = Blas.query "//b" in
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q);
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Twig ~translator:Blas.Pushup q);
  let b_start = first_start_of_tag storage "b" in
  ignore (Blas.Update.delete_subtree storage ~start:b_start);
  oracle_check storage q

(* The one invalidation rule: an edit whose D-window lies inside a
   cached scan's rows, but whose P-label lies outside the scan's
   interval, leaves the entry warm. *)
let test_scan_survives_edit_outside_interval () =
  let storage = storage_of "<r><a><c>t</c></a><a><b>u</b></a></r>" in
  let qa = Blas.query "//a" in
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Pushup
       qa);
  let streams () = scan_stats (Blas.Storage.cache storage) in
  let before = streams () in
  ignore
    (Blas.Update.replace_text storage
       ~start:(first_start_of_tag storage "c")
       (Some "v"));
  check_int "no scan entry invalidated" 0
    (Stats.diff ~before ~after:(streams ())).Stats.invalidations;
  let before = streams () in
  let twig =
    Blas.run ~cache:true storage ~engine:Blas.Twig ~translator:Blas.Pushup qa
  in
  let d = Stats.diff ~before ~after:(streams ()) in
  check_int "the next run hits" 1 d.Stats.hits;
  check_int "and does not miss" 0 d.Stats.misses;
  check_int_list "served answers" (Blas.oracle storage qa) twig.Blas.starts;
  oracle_check storage qa;
  oracle_check storage (Blas.query "//a[c = \"v\"]")

(* ------------------------------------------------------------------ *)
(* Coherence property: edits interleaved with repeated queries         *)

let prop_coherence =
  qtest ~count:40 "cache coherent across random edit scripts"
    Test_update.script_gen (fun (doc, edits, queries) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun storage ->
      List.for_all
        (fun edit ->
          Test_update.apply_edit storage edit;
          Cache.validate (Blas.Storage.cache storage);
          List.for_all
            (fun q ->
              List.for_all
                (fun translator ->
                  List.for_all
                    (fun engine ->
                      let warm1 =
                        (Blas.run ~cache:true storage ~engine ~translator q)
                          .Blas.starts
                      in
                      let warm2 =
                        (Blas.run ~cache:true storage ~engine ~translator q)
                          .Blas.starts
                      in
                      let cold =
                        (Blas.run ~cache:false storage ~engine ~translator q)
                          .Blas.starts
                      in
                      warm1 = cold && warm2 = cold)
                    engines)
                suffix_translators)
            queries)
        edits)

(* ------------------------------------------------------------------ *)
(* Plan memo: one plan per storage state                               *)

(* Every change to a plan's inputs a script can make: an edit through
   {!Blas.Update}, a new path, the removal of a path's last node, a
   P-label respread, a statistics resample and — on a database — a
   transaction that edits and then aborts. *)
type plan_step =
  | Edit of Test_update.edit
  | New_path of int * string * string
  | Delete_last of int
  | Respread
  | Resample of int
  | Abort of int

let pp_plan_step = function
  | Edit _ -> "edit"
  | New_path (i, a, b) -> Printf.sprintf "new path <%s><%s/></%s> under #%d" a b a i
  | Delete_last i -> Printf.sprintf "delete last of a path #%d" i
  | Respread -> "respread"
  | Resample seed -> Printf.sprintf "resample %d" seed
  | Abort i -> Printf.sprintf "abort under #%d" i

let plan_script_gen =
  let open QCheck2.Gen in
  let step =
    frequency
      [
        (3, map (fun e -> Edit e) Test_update.edit_gen);
        ( 2,
          let* i = nat and* a = tag and* b = tag in
          return (New_path (i, a, b)) );
        (2, map (fun i -> Delete_last i) nat);
        (1, return Respread);
        (2, map (fun seed -> Resample seed) (int_range 1 1_000_000));
        (2, map (fun i -> Abort i) nat);
      ]
  in
  let* doc = doc_gen in
  let* steps = list_size (int_range 1 5) step in
  let* queries = list_size (return 3) (query_gen ~wildcards:true ()) in
  return (doc, steps, queries)

let nth_node storage i =
  let nodes = Array.of_list (Blas.Storage.doc storage).Blas_xpath.Doc.all in
  nodes.(i mod Array.length nodes)

let apply_plan_step storage = function
  | Edit e -> Test_update.apply_edit storage e
  | New_path (i, a, b) ->
    ignore
      (Blas.Update.insert_subtree storage ~parent:(nth_node storage i).Blas_xpath.Doc.start
         ~pos:0
         Blas_xml.Types.(Element (a, [ Element (b, [ Content "x" ]) ])))
  | Delete_last i -> (
    let all = (Blas.Storage.doc storage).Blas_xpath.Doc.all in
    let alone (n : Blas_xpath.Doc.node) =
      n.level > 1
      && List.length
           (List.filter
              (fun (m : Blas_xpath.Doc.node) -> m.source_path = n.source_path)
              all)
         = 1
    in
    match List.filter alone all with
    | [] -> ()
    | lone ->
      let n = List.nth lone (i mod List.length lone) in
      ignore (Blas.Update.delete_subtree storage ~start:n.Blas_xpath.Doc.start))
  | Respread ->
    let rec go k =
      let before = Blas.Storage.guide storage in
      ignore (respread_edit storage k);
      if
        k < 40
        && Blas_xml.Dataguide.relabeled ~before ~after:(Blas.Storage.guide storage) = []
      then go (k + 1)
    in
    go 1
  | Resample seed -> Blas.Optimizer.refresh ~seed storage
  | Abort i -> (
    match Blas.Storage.disk storage with
    | None -> ()
    | Some d -> (
      let parent = (nth_node storage i).Blas_xpath.Doc.start in
      match
        d.Blas.Storage.dk_with_tx (fun () ->
            let target =
              {
                Blas_update.Update_engine.cols = Blas.Storage.columns storage;
                guide = Blas.Storage.guide storage;
                sp = storage.Blas.Storage.sp;
                sd = storage.Blas.Storage.sd;
                pool = Blas.Storage.pool storage;
              }
            in
            ignore
              (Blas_update.Update_engine.insert_subtree target ~parent ~pos:0
                 Blas_xml.Types.(
                   Element
                     ( "z",
                       [ Element ("a", [ Content "x" ]); Element ("b", [ Content "y" ]) ] )));
            storage.Blas.Storage.guide <- target.guide;
            failwith "abort")
      with
      | _ -> Alcotest.fail "the transaction should have aborted"
      | exception Failure _ -> ()))

let rec accessed_tables = function
  | Blas_rel.Algebra.Access { table; _ } -> [ table ]
  | Select (_, p) | Project (_, p) | Distinct p -> accessed_tables p
  | Theta_join (_, a, b) | Djoin (_, a, b) -> accessed_tables a @ accessed_tables b
  | Union ps -> List.concat_map accessed_tables ps

(* What a plan decides, as the planning entry points expose it: the
   Auto2 pick and its priced candidates, the SQL and D-joins of the run
   and of [sql_for]/[plan_for], and the answers. *)
let observe_plan storage ~translator ~engine q =
  let r = Blas.run ~cache:false storage ~engine ~translator q in
  let compiled = Blas.plan_for storage translator q in
  ( ( Option.map
        (fun c -> (Blas.Optimizer.label c, c.Blas.Optimizer.ch_candidates))
        r.Blas.choice,
      r.Blas.sql,
      r.Blas.plan_djoins,
      Blas.sql_for storage translator q,
      Option.map Blas_rel.Algebra.count_djoins compiled ),
    r.Blas.starts,
    compiled )

let plan_cells =
  Blas.
    [
      (Auto2, Rdbms);
      (Auto2, Twig);
      (Split, Rdbms);
      (Pushup, Rdbms);
      (Unfold, Twig);
      (D_labeling, Rdbms);
    ]

(* After a step, the memoized plan of every cell equals one planned
   from scratch, reads the storage's current tables and answers like
   the oracle; the fresh plans then warm the memo for the next step.
   Every memoized plan is read before the one flush. *)
let plans_agree storage queries =
  let cells =
    List.concat_map
      (fun q ->
        let expected = Blas.oracle storage q in
        List.map (fun (translator, engine) -> (q, expected, translator, engine)) plan_cells)
      queries
  in
  let observe () =
    List.map
      (fun (q, _, translator, engine) -> observe_plan storage ~translator ~engine q)
      cells
  in
  let memo = observe () in
  Cache.flush_plans (Blas.Storage.cache storage);
  let fresh = observe () in
  let current t = t == storage.Blas.Storage.sp || t == storage.Blas.Storage.sd in
  List.for_all2
    (fun (_, expected, _, _) ((memo, starts, compiled), (fresh, _, _)) ->
      memo = fresh && starts = expected
      && List.for_all current (Option.fold ~none:[] ~some:accessed_tables compiled))
    cells (List.combine memo fresh)

(* A fixed query set, [//*] among it: every insert and delete moves a
   count it is priced on. *)
let reopen_queries =
  List.map Blas.query [ "//*"; "//a"; "//b/c"; "//a[b = \"x\"]"; "//c[d]//a" ]

(* After a commit, a read-only reopen of the database at [path] holds
   the statistics of the read-write [storage] and prices the fixed
   query set alike: the same Auto2 pick, estimate and priced
   candidates.  Both price on their live guide's counts. *)
let reopen_agrees storage path =
  let reopened = Blas.Database.open_ ~mode:Blas.Database.Ro ~path () in
  Fun.protect
    ~finally:(fun () -> Blas.Storage.close reopened)
    (fun () ->
      let pick s q =
        let c = Blas.Optimizer.choose s q in
        (Blas.Optimizer.label c, c.Blas.Optimizer.ch_est_cost, c.Blas.Optimizer.ch_candidates)
      in
      (match (Blas.Storage.ostats storage, Blas.Storage.ostats reopened) with
      | Some a, Some b -> Blas.Optimizer.Stats.equal a b
      | None, None -> true
      | _ -> false)
      && List.for_all (fun q -> pick storage q = pick reopened q) reopen_queries)

(* The script runs on [tree] padded with 150 [f] leaves, in memory and
   on a database of 512-byte pages: one edit then ages the statistics
   by well under their 20% resample threshold, so an edit's own flush
   is what the script tests, not the resample it would trigger on a
   tiny document.  [f] gets both storages and the database's path. *)
let with_plan_twins tree f =
  let tree =
    match tree with
    | Blas_xml.Types.Element (root, kids) ->
      Blas_xml.Types.Element
        (root, kids @ [ Element ("f", List.init 150 (fun _ -> Blas_xml.Types.Element ("f", []))) ])
    | Content _ -> tree
  in
  let mem = Blas.Storage.of_tree tree in
  with_temp_db (fun path ->
      Blas.Database.create ~page_size:512 ~path (Blas.Storage.of_tree tree);
      with_storage
        (Blas.Database.open_ ~cache_pages:16 ~mode:Blas.Database.Rw ~path ())
        (fun disk -> f [ mem; disk ] path))

let prop_plan_memo =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"plan memo equals a fresh plan across edit scripts"
       ~print:(fun (tree, steps, queries) ->
         Printf.sprintf "%s\nsteps: %s\nqueries: %s" (pp_tree tree)
           (String.concat "; " (List.map pp_plan_step steps))
           (String.concat ", " (List.map pp_query queries)))
       plan_script_gen
       (fun (tree, steps, queries) ->
         with_plan_twins tree (fun storages path ->
             List.for_all
               (fun storage ->
                 (* every step but a resample (held in memory until the
                    next commit) leaves the database committed *)
                 let committed step =
                   match (Blas.Storage.disk storage, step) with
                   | None, _ | _, Resample _ -> true
                   | Some _, _ -> reopen_agrees storage path
                 in
                 plans_agree storage queries
                 && List.for_all
                      (fun step ->
                        apply_plan_step storage step;
                        plans_agree storage queries && committed step)
                      steps)
               storages)))

(* Spans by name, depth first. *)
let span_list tracer =
  let rec go (s : Blas_obs.Trace.span) = s :: List.concat_map go (Blas_obs.Trace.children s) in
  List.concat_map go (Blas_obs.Trace.roots tracer)

let test_second_run_reuses_plan () =
  List.iter
    (fun (tree, queries) ->
      with_temp_db (fun path ->
          Blas.Database.create ~codec:Blas_rel.Codec.V2 ~path (Blas.Storage.of_tree tree);
          with_storage
            (Blas.Database.open_ ~cache_pages:16 ~mode:Blas.Database.Ro ~path ())
          @@ fun storage ->
          List.iter
            (fun (id, qs) ->
              let q = Blas.query qs in
              let traced () =
                Blas.Storage.cold_cache storage;
                let tracer = Blas_obs.Trace.create ~enabled:true () in
                let r = Blas.run ~tracer storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 q in
                (r, span_list tracer)
              in
              let first, first_spans = traced () in
              let second, second_spans = traced () in
              let named name spans =
                List.filter (fun (s : Blas_obs.Trace.span) -> s.name = name) spans
              in
              let memo_of spans =
                List.map
                  (fun (s : Blas_obs.Trace.span) -> List.assoc_opt "memo" s.attrs)
                  (named "plan-choice" spans)
              in
              check_int_list (id ^ " answers") first.Blas.starts second.Blas.starts;
              check_bool (id ^ " counters") true (first.Blas.counters = second.Blas.counters);
              check_bool (id ^ " one choice, memoized") true
                (memo_of first_spans = [ Some "miss" ] && memo_of second_spans = [ Some "hit" ]);
              check_bool (id ^ " the first run plans") true
                (named "translate" first_spans <> []);
              List.iter
                (fun name ->
                  check_int (id ^ " no " ^ name ^ " on the second run") 0
                    (List.length (named name second_spans)))
                [ "translate"; "compile"; "decompose" ];
              let attrs spans =
                List.filter
                  (fun (k, _) -> k <> "memo")
                  (List.hd (named "plan-choice" spans)).Blas_obs.Trace.attrs
              in
              check_bool (id ^ " the hit carries the pick and its candidates") true
                (attrs first_spans = attrs second_spans))
            queries))
    (Golden.Currencies.docs ())

(* ------------------------------------------------------------------ *)
(* Stress: one cache hammered from several domains at once            *)

let test_parallel_stress () =
  let storage = storage_of doc_xml in
  let queries =
    List.map Blas.query [ "//b"; "/r/a/b"; "//a[b = \"x\"]"; "//c"; "/r/*/b" ]
  in
  let expected =
    List.map
      (fun q ->
        (Blas.run ~cache:false storage ~engine:Blas.Rdbms
           ~translator:Blas.Pushup q)
          .Blas.starts)
      queries
  in
  (* Four rounds of the whole workload on both engines, dealt over the
     domains round-robin. *)
  let tasks = List.concat_map (fun _ -> engines) [ 1; 2; 3; 4 ] in
  List.iter
    (fun domains ->
      Cache.clear (Blas.Storage.cache storage);
      let results =
        Test_util.on_domains domains (fun d ->
            List.filteri (fun i _ -> i mod domains = d) tasks
            |> List.map (fun engine ->
                   List.map
                     (fun q ->
                       (Blas.run ~cache:true storage ~engine
                          ~translator:Blas.Pushup q)
                         .Blas.starts)
                     queries))
      in
      List.iteri
        (fun i answers ->
          check_bool
            (Printf.sprintf "%d domains, run %d: answers correct" domains i)
            true (answers = expected))
        (List.concat results);
      Cache.validate (Blas.Storage.cache storage))
    par_jobs

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "lru eviction prefers low benefit" `Quick
      test_lru_eviction_prefers_low_benefit;
    Alcotest.test_case "lru rejects oversized and zero-benefit" `Quick
      test_lru_oversized_rejected;
    Alcotest.test_case "lru filter_in_place" `Quick test_lru_filter_in_place;
    Alcotest.test_case "semantic exact hit" `Quick test_semantic_exact_hit;
    Alcotest.test_case "semantic invalidation" `Quick test_semantic_invalidate;
    Alcotest.test_case "warm answers equal cold" `Quick test_warm_equals_cold;
    Alcotest.test_case "scan entries serve the columns they cover" `Quick
      test_scan_columns_cover;
    Alcotest.test_case "rdbms scans serve twig exactly" `Quick
      test_rdbms_scans_serve_twig;
    Alcotest.test_case "memo hit has zero I/O" `Quick test_memo_hit_zero_io;
    Alcotest.test_case "cache disabled by default" `Quick
      test_cache_disabled_by_default;
    Alcotest.test_case "edits invalidate precisely" `Quick
      test_invalidation_on_edit;
    Alcotest.test_case "new tag bumps the schema epoch" `Quick
      test_new_tag_schema_epoch;
    Alcotest.test_case "unfold survives guide change" `Quick
      test_unfold_survives_guide_change;
    Alcotest.test_case "delete invalidates" `Quick test_delete_invalidates;
    Alcotest.test_case "scan survives edit outside its interval" `Quick
      test_scan_survives_edit_outside_interval;
    prop_coherence;
    prop_plan_memo;
    Alcotest.test_case "second run reuses its plan" `Quick
      test_second_run_reuses_plan;
    Alcotest.test_case "parallel stress" `Quick test_parallel_stress;
  ]
