(** Tests for the cost model: statistics-only estimates must match what
    the engines actually read where the statistics are exact (path
    cardinalities), and bound the cold-cache page reads. *)

let protein = lazy (Blas.index_of_tree (Blas_datagen.Protein.generate ~entries:60 ()))

let stats storage =
  match Blas.Storage.ostats storage with
  | Some stats -> stats
  | None -> Alcotest.fail "storage has no optimizer statistics"

let estimate storage translator qs =
  Blas.Cost.estimate_decomposition (stats storage)
    (Blas.decompose storage translator (Blas.query qs))

(* Pages of one translation priced item by item, each item a clustered
   fetch of its estimated tuples. *)
let estimated_pages storage translator qs =
  let page_rows = Blas.Cost.model_page_rows storage in
  List.fold_left
    (fun acc (branch : Blas.Suffix_query.t) ->
      List.fold_left
        (fun acc (item : Blas.Suffix_query.item) ->
          let e =
            Blas.Cost.estimate_branch (stats storage)
              { Blas.Suffix_query.items = [ item ]; joins = []; output = item.id }
          in
          acc + Blas.Cost.pages_for (int_of_float e.Blas.Cost.e_visited) ~page_rows)
        acc branch.items)
    0
    (Blas.decompose storage translator (Blas.query qs))

let unit_tests =
  [
    ( "estimated visited equals actual visited (twig engine)",
      fun () ->
        let storage = Lazy.force protein in
        List.iter
          (fun qs ->
            List.iter
              (fun translator ->
                let est = estimate storage translator qs in
                let actual =
                  (Blas.run storage ~engine:Blas.Twig ~translator (Blas.query qs))
                    .Blas.visited
                in
                Test_util.check_int
                  (Printf.sprintf "%s/%s" qs (Blas.translator_name translator))
                  (int_of_float est.Blas.Cost.e_visited) actual)
              [ Blas.Split; Blas.Pushup; Blas.Unfold ])
          [
            "/ProteinDatabase/ProteinEntry/protein/name";
            "//refinfo[citation]/title";
            "/ProteinDatabase//authors/author";
          ] );
    ( "page estimate bounds the cold-cache reads",
      fun () ->
        let storage = Lazy.force protein in
        List.iter
          (fun qs ->
            let est = estimated_pages storage Blas.Pushup qs in
            Blas.Storage.cold_cache storage;
            let report =
              Blas.run storage ~engine:Blas.Twig ~translator:Blas.Pushup
                (Blas.query qs)
            in
            (* The estimate prices clustered data pages; the paged
               index also reads one leaf per seek. *)
            let leaves = report.Blas.counters.Blas_rel.Counters.index_seeks in
            Test_util.check_bool
              (Printf.sprintf "%s: %d reads <= %d estimated + %d leaves" qs
                 report.Blas.page_reads est leaves)
              true
              (report.Blas.page_reads <= est + leaves))
          [ "//protein/name"; "//refinfo[year]/title" ] );
    ( "djoins and branches are priced from the decomposition",
      fun () ->
        let storage = Lazy.force protein in
        let est = estimate storage Blas.Pushup "/ProteinDatabase//author" in
        Test_util.check_int "djoins" 1 est.Blas.Cost.e_djoins;
        Test_util.check_int "branches" 1 est.Blas.Cost.e_branches;
        let est = estimate storage Blas.Unfold "/ProteinDatabase//author" in
        Test_util.check_int "unfold djoins" 0 est.Blas.Cost.e_djoins );
    ( "zero and add",
      fun () ->
        let a =
          {
            Blas.Cost.e_visited = 1.;
            e_selected = 2.;
            e_join_input = 3.;
            e_djoins = 4;
            e_branches = 5;
          }
        in
        Test_util.check_bool "left identity" true
          (Blas.Cost.add_estimate Blas.Cost.zero_estimate a = a);
        let b = Blas.Cost.add_estimate a a in
        Test_util.check_bool "visited" true (b.Blas.Cost.e_visited = 2.);
        Test_util.check_int "branches" 10 b.Blas.Cost.e_branches );
  ]

let suite = List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
