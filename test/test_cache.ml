(** Tests for the query cache ({!Blas.Cache} / {!Blas_cache}).

    Three layers are covered: the lock-striped LRU and the P-interval
    scan layer as units, the cached execution pipeline end to end (warm
    answers bit-identical to cold, memo hits with zero I/O, one scan
    entry shared by both engines), and the update-aware invalidation
    protocol — one rule, a touched P-label inside an entry's interval —
    including the coherence property that interleaves random edit
    scripts with repeated queries across every suffix-path translator
    and both engines, and a stress run that hammers one cache from
    several domains and then checks its internal accounting. *)

open Test_util
module Cache = Blas.Cache
module Stats = Blas_cache.Stats
module Lru = Blas_cache.Lru
module Interval = Blas_label.Interval
module Bignum = Blas_label.Bignum

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
      Blas_rel.Value.Big (Bignum.of_int plabel);
      Blas_rel.Value.Int start;
      Blas_rel.Value.Int fin;
      Blas_rel.Value.Int 1;
      Blas_rel.Value.Null;
    ]

let sp_cols = [ "plabel"; "start"; "end"; "level"; "data" ]

let iv lo hi = Interval.make (Bignum.of_int lo) (Bignum.of_int hi)

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
      ~plabels:(List.map Bignum.of_int plabels)
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

let test_full_flush_on_new_tag () =
  let storage = storage_of doc_xml in
  let q = Blas.query "//b" in
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q);
  (* A new tag rebuilds the inventory: every P-label moves, so the
     whole cache must flush and warm answers must match the oracle. *)
  let report =
    Blas.Update.insert_subtree storage ~parent:1 ~pos:0
      (Blas_xml.Types.Element
         ("zz", [ Blas_xml.Types.Element ("b", [ Blas_xml.Types.Content "n" ]) ]))
  in
  check_bool "inventory rebuilt" true report.Blas.Update.table_rebuilt;
  check_bool "full invalidation" true
    report.Blas.Update.invalidation.Blas.Update.inv_full;
  check_int "cache emptied" 0
    (Cache.totals (Blas.Storage.cache_stats storage)).Stats.entries;
  oracle_check storage q;
  oracle_check storage (Blas.query "//zz/b")

let test_unfold_survives_guide_change () =
  (* Unfold decompositions depend on the DataGuide: an insert that
     materializes a previously-absent path (existing tags only — no
     inventory rebuild) must flush the result memo, whose footprint
     covers only the old decomposition's branches. *)
  let storage = storage_of "<r><a><b>x</b></a><c>w</c></r>" in
  let q = Blas.query "//b" in
  ignore
    (Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator:Blas.Unfold q);
  let report =
    Blas.Update.insert_subtree storage
      ~parent:(first_start_of_tag storage "c") ~pos:0
      (Blas_xml.Types.Element ("b", [ Blas_xml.Types.Content "fresh" ]))
  in
  check_bool "no inventory rebuild" false report.Blas.Update.table_rebuilt;
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
      let storage = Blas.index_of_tree doc in
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
    Alcotest.test_case "new tag flushes everything" `Quick
      test_full_flush_on_new_tag;
    Alcotest.test_case "unfold survives guide change" `Quick
      test_unfold_survives_guide_change;
    Alcotest.test_case "delete invalidates" `Quick test_delete_invalidates;
    Alcotest.test_case "scan survives edit outside its interval" `Quick
      test_scan_survives_edit_outside_interval;
    prop_coherence;
    Alcotest.test_case "parallel stress" `Quick test_parallel_stress;
  ]
