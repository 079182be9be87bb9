(** Tests for the cost-based adaptive optimizer ({!Blas.Optimizer} and
    the [Auto2] translator).

    Three layers: the statistics themselves (deterministic sampling,
    exact cardinalities from the counted DataGuide, codec round-trip,
    catalog persistence, older catalogs), the
    pick (statistics-only — no data probes — and internally consistent
    with its own candidate table), and the system behavior (Auto2
    always agrees with the oracle, picks stay sane against measured
    candidates on the Figure 10 queries, and edits keep statistics
    coherent and retire memoized picks). *)

open Test_util
module Stats = Blas.Optimizer.Stats
module Planner = Blas.Optimizer.Planner
module Dataguide = Blas_xml.Dataguide

let protein = lazy (Blas.index_of_tree (Blas_datagen.Protein.generate ~entries:60 ()))

let auction = lazy (Blas.index_of_tree (Blas_datagen.Auction.generate ~scale:8 ()))

let shakespeare =
  lazy (Blas.index_of_tree (Blas_datagen.Shakespeare.generate ~plays:2 ()))

let stats_exn storage =
  match Blas.Optimizer.stats_of storage with
  | Some s -> s
  | None -> Alcotest.fail "storage has no statistics"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Statistics over a document model's nodes, as at index build. *)
let collect_over ?seed ?epoch (doc : Blas_xpath.Doc.t) =
  Stats.collect ?seed ?epoch (fun f ->
      List.iter
        (fun (n : Blas_xpath.Doc.node) -> Option.iter (f n.tag) n.data)
        doc.all)

let test_deterministic_sampling () =
  let doc = Blas.Storage.doc (Lazy.force protein) in
  let a = collect_over ~seed:42 doc in
  let b = collect_over ~seed:42 doc in
  check_bool "same seed, same statistics" true (Stats.equal a b);
  check_int "seed recorded" 42 (Stats.seed a);
  (* The process-wide default seed is fixed, so two plain collects are
     identical too (--stats-seed reproducibility). *)
  let c = collect_over doc in
  let d = collect_over doc in
  check_bool "default seed is fixed" true (Stats.equal c d)

let test_exact_cardinalities () =
  let storage = Blas.index "<r><a>x</a><b><a>y</a><a/></b><c/></r>" in
  let guide = Blas.Storage.guide storage in
  let card ~absolute tags = Dataguide.suffix_count guide ~absolute ~tags in
  check_int "every node" 6 (card ~absolute:false []);
  check_int "a tag card" 3 (card ~absolute:false [ "a" ]);
  check_int "b tag card" 1 (card ~absolute:false [ "b" ]);
  check_int "missing tag card" 0 (card ~absolute:false [ "zzz" ]);
  check_int "absolute path card" 2 (card ~absolute:true [ "r"; "b"; "a" ]);
  check_int "absolute prefix only" 0 (card ~absolute:true [ "b"; "a" ]);
  check_int "suffix matches both paths" 3 (card ~absolute:false [ "a" ]);
  check_int "two-step suffix" 2 (card ~absolute:false [ "b"; "a" ]);
  check_int "unknown suffix" 0 (card ~absolute:false [ "q"; "a" ])

let test_selectivity () =
  let storage =
    Blas.index "<r><a>x</a><a>x</a><a>x</a><a>y</a><b>z</b></r>"
  in
  let s = stats_exn storage in
  let sel_x = Stats.selectivity s ~tag:"a" (`Equals "x") in
  let sel_none = Stats.selectivity s ~tag:"a" (`Equals "nope") in
  check_bool "frequent value is likelier" true (sel_x > sel_none);
  check_bool "selectivity in (0,1]" true (sel_x > 0. && sel_x <= 1.);
  check_bool "absent value floored above zero" true (sel_none > 0.);
  (* A tag with no sampled text: inequality stays unselective, equality
     drops to the floor. *)
  check_bool "unsampled differs ~ 1" true
    (Stats.selectivity s ~tag:"r" (`Differs "x") = 1.0);
  check_bool "unsampled equals is floored" true
    (Stats.selectivity s ~tag:"r" (`Equals "x") <= 0.01)

let test_codec_roundtrip () =
  let s = stats_exn (Lazy.force protein) in
  let blob = Stats.to_string s in
  check_bool "round-trip" true (Stats.equal s (Stats.of_string blob));
  (* A v7 catalog keeps the header and the reservoirs apart. *)
  let header =
    let b = Buffer.create 32 in
    Stats.add_header b s;
    Buffer.contents b
  in
  check_string "the blob is header then reservoirs" blob (header ^ Stats.reservoirs s);
  check_bool "split round-trip" true
    (Stats.equal s (Stats.of_parts ~header ~reservoirs:(Stats.reservoirs s)));
  let raises b =
    match Stats.of_string b with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "garbage rejected" true (raises "not a stats blob");
  check_bool "truncation rejected" true
    (raises (String.sub blob 0 (String.length blob / 2)))

let test_catalog_persistence () =
  let path = Filename.temp_file "blas_opt_test_" ".blasdb" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      let mem = Blas.index "<r><a>x</a><a>y</a><b><a/></b></r>" in
      let expected = stats_exn mem in
      Blas.Database.create ~page_size:512 ~path mem;
      let disk = Blas.Database.open_ ~mode:Blas.Database.Ro ~path () in
      let loaded = stats_exn disk in
      check_bool "stats survive the catalog" true (Stats.equal expected loaded))

let path_counts g = Dataguide.path_counts g

(* The resident guide, read before anything forces the document model,
   against the model's own counted guide. *)
let check_guide_exact msg storage =
  let resident = path_counts (Blas.Storage.guide storage) in
  check_bool (msg ^ ": guide counts equal the model's") true
    (resident = path_counts (Blas.Storage.doc storage).Blas_xpath.Doc.guide)

let test_opened_guide_is_exact () =
  with_temp_db (fun path ->
      let mem = Blas.index "<r><a>x</a><b><a>y</a><a/></b><a>z</a></r>" in
      Blas.Database.create ~page_size:512 ~path mem;
      let disk = Blas.Database.open_ ~mode:Blas.Database.Rw ~path () in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close disk)
        (fun () ->
          check_int "a path counted past one" 2
            (Dataguide.count (Blas.Storage.guide disk) [ "r"; "a" ]);
          check_bool "open builds no document model" false
            (Blas.Storage.columns_resident disk);
          check_guide_exact "after open" disk;
          ignore
            (Blas.Update.insert_subtree disk ~parent:1 ~pos:0
               (Blas_xml.Dom.parse "<b><a>new</a></b>"));
          let victim =
            List.find
              (fun (n : Blas_xpath.Doc.node) -> n.tag = "a")
              (Blas.Storage.doc disk).Blas_xpath.Doc.all
          in
          ignore (Blas.Update.delete_subtree disk ~start:victim.start);
          check_guide_exact "after edits" disk;
          (* A transaction that aborts after a real INSERT edited the
             tables, the label columns and the guide: the reload must
             bring back the committed counts and drop what the edit
             touched. *)
          let committed = path_counts (Blas.Storage.guide disk) in
          let d = Option.get (Blas.Storage.disk disk) in
          (match
             d.Blas.Storage.dk_with_tx (fun () ->
                 let target =
                   {
                     Blas_update.Update_engine.cols = Blas.Storage.columns disk;
                     guide = Blas.Storage.guide disk;
                     sp = disk.Blas.Storage.sp;
                     sd = disk.Blas.Storage.sd;
                     pool = Blas.Storage.pool disk;
                   }
                 in
                 ignore
                   (Blas_update.Update_engine.insert_subtree target ~parent:1 ~pos:0
                      (Blas_xml.Dom.parse "<z><z/></z>"));
                 disk.Blas.Storage.guide <- target.guide;
                 failwith "abort")
           with
          | _ -> Alcotest.fail "the transaction should have aborted"
          | exception Failure _ -> ());
          check_bool "the committed counts are back" true
            (path_counts (Blas.Storage.guide disk) = committed);
          check_bool "the abort dropped the edited columns" true
            (Blas_update.Columns.equal (Blas.Storage.columns disk)
               (fst
                  (Blas_update.Columns.of_sd
                     (Blas_rel.Table.scan disk.Blas.Storage.sd (Blas_rel.Counters.create ())))));
          check_guide_exact "after an aborted transaction" disk);
      let reopened = Blas.Database.open_ ~mode:Blas.Database.Ro ~path () in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close reopened)
        (fun () -> check_guide_exact "after reopening the edited file" reopened))

(* Databases written before the catalog kept per-path counts (catalog
   versions 2 and 3, by the v1 and v2 codecs): the open builds the
   label columns once, counts from them and collects fresh statistics;
   the first commit writes the counts down. *)
let test_older_catalogs_open () =
  List.iter
    (fun name ->
      with_temp_db (fun path ->
          copy_fixture name path;
          let query = Blas.query "//b/a" in
          let disk = Blas.Database.open_ ~mode:Blas.Database.Rw ~path () in
          Fun.protect
            ~finally:(fun () -> Blas.Storage.close disk)
            (fun () ->
              check_int (name ^ ": exact count") 2
                (Dataguide.count (Blas.Storage.guide disk) [ "r"; "a" ]);
              check_guide_exact name disk;
              check_bool (name ^ ": statistics collected") true
                (Blas.Optimizer.stats_of disk <> None);
              check_int_list (name ^ ": Auto2 answers")
                (Blas.oracle disk query)
                (Blas.answers disk ~engine:Blas.Rdbms ~translator:Blas.Auto2
                   query);
              ignore (Blas.Update.replace_text disk ~start:1 (Some "t")));
          let reopened = Blas.Database.open_ ~mode:Blas.Database.Ro ~path () in
          Fun.protect
            ~finally:(fun () -> Blas.Storage.close reopened)
            (fun () ->
              check_bool (name ^ ": rewritten catalog opens without the model")
                false
                (Blas.Storage.columns_resident reopened);
              check_bool (name ^ ": rewritten catalog keeps statistics") true
                (Blas.Optimizer.stats_of reopened <> None);
              check_guide_exact (name ^ " rewritten") reopened)))
    [ "catalog_v2.blasdb"; "catalog_v3.blasdb" ]

(* A P-label respread flushes everything and resamples the statistics
   inside the edit's transaction.  The resample reads the label
   columns, and the statistics equal a collection over a model built
   afterwards. *)
let test_respread_resamples_without_the_model () =
  with_temp_db (fun path ->
      Blas.Database.create ~page_size:512 ~path (Blas.index "<r><a>x</a><z>y</z></r>");
      let disk = Blas.Database.open_ ~mode:Blas.Database.Rw ~path () in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close disk)
        (fun () ->
          let rec respread k =
            let before = Blas.Storage.guide disk in
            ignore (respread_edit disk k);
            if Dataguide.relabeled ~before ~after:(Blas.Storage.guide disk) = [] then
              if k < 40 then respread (k + 1) else Alcotest.fail "the gap never ran out"
          in
          respread 1;
          let s = stats_exn disk in
          check_bool "the statistics were resampled" true (Stats.epoch s > 0);
          check_bool "they equal a collection over a fresh model" true
            (Stats.equal s
               (collect_over ~seed:(Stats.seed s) ~epoch:(Stats.epoch s)
                  (Blas.Storage.doc disk)))))

(* ------------------------------------------------------------------ *)
(* The pick                                                            *)

let fig10_small =
  [
    (shakespeare, "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE");
    (shakespeare, "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR");
    (shakespeare, "/PLAYS/PLAY/ACT/SCENE[TITLE]//LINE");
    (protein, "/ProteinDatabase/ProteinEntry/protein/name");
    (protein, "/ProteinDatabase/ProteinEntry//authors/author");
    (protein, "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name");
    (auction, "//category/description/parlist/listitem");
    (auction, "/site/regions//item/description");
    (auction, "/site/regions/asia/item[shipping]/description");
  ]

let test_choose_probes_no_data () =
  List.iter
    (fun (sl, qs) ->
      let storage = Lazy.force sl in
      let pool = Blas.Storage.pool storage in
      let before = Blas_rel.Buffer_pool.requests pool in
      ignore (Blas.Optimizer.choose storage (Blas.query qs));
      check_int qs before (Blas_rel.Buffer_pool.requests pool))
    fig10_small

let test_choice_is_cheapest_candidate () =
  List.iter
    (fun (sl, qs) ->
      let storage = Lazy.force sl in
      let c = Blas.Optimizer.choose storage (Blas.query qs) in
      check_bool "priced from statistics" true c.Blas.Optimizer.ch_from_stats;
      match c.Blas.Optimizer.ch_candidates with
      | [] -> Alcotest.fail "no candidates"
      | head :: rest ->
        check_bool "head is the pick" true
          (head.Planner.cd_cost = c.Blas.Optimizer.ch_est_cost);
        List.iter
          (fun (cand : Planner.candidate) ->
            check_bool "sorted cheapest-first" true
              (cand.Planner.cd_cost >= head.Planner.cd_cost))
          rest)
    fig10_small

let test_auto2_matches_oracle () =
  List.iter
    (fun (sl, qs) ->
      let storage = Lazy.force sl in
      let query = Blas.query qs in
      let report = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 query in
      check_bool "choice reported" true (report.Blas.choice <> None);
      check_int_list qs (Blas.oracle storage query) report.Blas.starts)
    fig10_small

(* The pick-quality regression: on every small-scale Figure 10 query
   the chosen candidate must be within 1.5x of the measured best.  At
   this scale candidates run in microseconds, so a millisecond noise
   floor keeps timer jitter from failing the build while still
   catching a genuinely catastrophic pick (the spreads that matter are
   order-of-magnitude). *)
let test_pick_never_catastrophic () =
  (* The model prices resident data; under BLAS_TEST_DISK every storage
     is disk-backed and candidate latencies are dominated by page I/O
     the planner deliberately does not probe, so the measured
     comparison is not meaningful there. *)
  if Sys.getenv_opt "BLAS_TEST_DISK" <> None then ()
  else
  let candidates =
    [
      (Blas.Split, Blas.Rdbms);
      (Blas.Pushup, Blas.Rdbms);
      (Blas.Unfold, Blas.Rdbms);
      (Blas.Split, Blas.Twig);
      (Blas.Pushup, Blas.Twig);
      (Blas.Unfold, Blas.Twig);
    ]
  in
  let time storage (translator, engine) query =
    ignore (Blas.run ~cache:false storage ~engine ~translator query);
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Blas_obs.Clock.now_ns () in
      ignore (Blas.run ~cache:false storage ~engine ~translator query);
      best := Float.min !best (Int64.to_float (Blas_obs.Clock.elapsed_ns t0))
    done;
    !best
  in
  List.iter
    (fun (sl, qs) ->
      let storage = Lazy.force sl in
      let query = Blas.query qs in
      let c = Blas.Optimizer.choose storage query in
      let pick =
        ( (match c.Blas.Optimizer.ch_translator with
          | Planner.Split -> Blas.Split
          | Planner.Pushup -> Blas.Pushup
          | Planner.Unfold -> Blas.Unfold),
          match c.Blas.Optimizer.ch_engine with
          | Planner.Rdbms -> Blas.Rdbms
          | Planner.Twig -> Blas.Twig )
      in
      let times = List.map (fun cand -> time storage cand query) candidates in
      let chosen_ns = time storage pick query in
      let best_ns = List.fold_left Float.min chosen_ns times in
      check_bool
        (Printf.sprintf "%s: %s is %.2fx best" qs (Blas.Optimizer.label c)
           (chosen_ns /. best_ns))
        true
        (chosen_ns <= (1.5 *. best_ns) +. 1e6))
    fig10_small

(* ------------------------------------------------------------------ *)
(* Updates: coherence and cache retirement                             *)

let test_refresh_bumps_epoch_and_cache () =
  let storage = Blas.index "<r><a>x</a><b/></r>" in
  let query = Blas.query "//a" in
  Blas.Storage.set_cache_enabled storage true;
  let r1 = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 query in
  let r2 = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 query in
  check_int "first run executes" 0 r1.Blas.memo_hits;
  check_int "second run is memoized" 1 r2.Blas.memo_hits;
  let epoch_before = Stats.epoch (stats_exn storage) in
  Blas.Optimizer.refresh storage;
  check_int "epoch advances" (epoch_before + 1) (Stats.epoch (stats_exn storage));
  let r3 = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 query in
  check_int "refresh retires the memoized pick" 0 r3.Blas.memo_hits;
  check_int_list "answers unchanged" r1.Blas.starts r3.Blas.starts

let test_update_triggers_resample () =
  (* A 3-node document: a single inserted node pushes the stale
     fraction past the threshold, so the update must resample (epoch
     advances) and the new tag must be visible in the statistics. *)
  let storage = Blas.index "<r><a>x</a><b/></r>" in
  let epoch_before = Stats.epoch (stats_exn storage) in
  ignore
    (Blas.Update.insert_subtree storage ~parent:1 ~pos:2
       (Blas_xml.Types.Element ("zzz", [ Blas_xml.Types.Content "v" ])));
  let s = stats_exn storage and guide = Blas.Storage.guide storage in
  check_bool "epoch advanced" true (Stats.epoch s > epoch_before);
  check_int "new tag counted" 1
    (Dataguide.suffix_count guide ~absolute:false ~tags:[ "zzz" ]);
  check_int "new tag sampled" 1 (Stats.sample_seen s ~tag:"zzz");
  check_int "node count tracks the edit" 4
    (Dataguide.suffix_count guide ~absolute:false ~tags:[])

(* Random edit scripts: cardinalities stay coherent — after any
   script the storage's guide counts exactly what a DataGuide built
   from the live tree counts, and a refresh equals a from-scratch
   collection over the live document. *)
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
  let nodes = Array.of_list (Blas.Storage.doc storage).Blas_xpath.Doc.all in
  let n = Array.length nodes in
  match edit with
  | Insert (parent, pos, tree) ->
    let parent = nodes.(parent mod n) in
    let pos = pos mod (List.length parent.Blas_xpath.Doc.children + 1) in
    ignore
      (Blas.Update.insert_subtree storage ~parent:parent.Blas_xpath.Doc.start
         ~pos tree)
  | Delete i ->
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
  return (doc, edits)

let prop_stats_coherent_under_edits =
  qtest ~count:100 "stats stay coherent across random edit scripts" script_gen
    (fun (doc, edits) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun storage ->
      List.iter (apply_edit storage) edits;
      let live = Blas.Storage.doc storage in
      let oracle =
        path_counts
          (Dataguide.of_tree (Blas_xpath.Doc.subtree live.Blas_xpath.Doc.root))
      in
      let guide_exact = path_counts (Blas.Storage.guide storage) = oracle in
      Blas.Optimizer.refresh storage;
      let s =
        match Blas.Optimizer.stats_of storage with
        | Some s -> s
        | None -> QCheck2.Test.fail_report "stats lost across edits"
      in
      let scratch = collect_over ~seed:(Stats.seed s) ~epoch:(Stats.epoch s) live in
      guide_exact && Stats.equal s scratch)

let prop_auto2_matches_oracle_under_edits =
  qtest ~count:80 "Auto2 agrees with the oracle after random edits" script_gen
    (fun (doc, edits) ->
      Test_util.with_storage (Blas.index_of_tree doc) @@ fun storage ->
      List.iter (apply_edit storage) edits;
      let query = Blas.query "//a[b]" in
      Blas.answers storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 query
      = Blas.oracle storage query)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "deterministic sampling" `Quick test_deterministic_sampling;
    Alcotest.test_case "exact cardinalities" `Quick test_exact_cardinalities;
    Alcotest.test_case "sampled selectivity" `Quick test_selectivity;
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "stats persist in the catalog" `Quick
      test_catalog_persistence;
    Alcotest.test_case "an opened database counts paths exactly" `Quick
      test_opened_guide_is_exact;
    Alcotest.test_case "older catalogs open with exact counts" `Quick
      test_older_catalogs_open;
    Alcotest.test_case "a respread resamples without the model" `Quick
      test_respread_resamples_without_the_model;
    Alcotest.test_case "choose never probes data" `Quick
      test_choose_probes_no_data;
    Alcotest.test_case "choice is the cheapest candidate" `Quick
      test_choice_is_cheapest_candidate;
    Alcotest.test_case "Auto2 agrees with the oracle (fig10)" `Quick
      test_auto2_matches_oracle;
    Alcotest.test_case "pick never catastrophic (fig10, measured)" `Slow
      test_pick_never_catastrophic;
    Alcotest.test_case "refresh retires memoized picks" `Quick
      test_refresh_bumps_epoch_and_cache;
    Alcotest.test_case "update triggers resample" `Quick
      test_update_triggers_resample;
    prop_stats_coherent_under_edits;
    prop_auto2_matches_oracle_under_edits;
  ]
