(** Coverage for the smaller supporting pieces: counters, algebra
    pretty-printing and inspection, facade conveniences, and error
    paths that the main suites do not reach. *)

open Blas_rel

let contains = Test_util.contains

let unit_tests =
  [
    ( "counters accumulate and reset",
      fun () ->
        let a = Counters.create () in
        a.Counters.tuples_read <- 5;
        a.Counters.djoins <- 2;
        a.Counters.theta_joins <- 1;
        let b = Counters.create () in
        b.Counters.tuples_read <- 7;
        Counters.add ~into:b a;
        Test_util.check_int "tuples" 12 b.Counters.tuples_read;
        Test_util.check_int "joins" 3 (Counters.joins b);
        Counters.reset b;
        Test_util.check_int "reset" 0 b.Counters.tuples_read;
        Test_util.check_bool "pp" true
          (String.length (Format.asprintf "%a" Counters.pp a) > 0) );
    ( "algebra pretty-printer covers every operator",
      fun () ->
        let t =
          Table.load (Page_store.memory ()) ~name:"t"
            ~schema:(Schema.of_list [ "start"; "end"; "level" ])
            ~cluster_key:[ "start" ] []
        in
        let access path = Algebra.Access { table = t; alias = "T"; path; residual = Algebra.True; cols = None } in
        let spec =
          {
            Algebra.anc_start = "T.start";
            anc_end = "T.end";
            desc_start = "U.start";
            desc_end = "U.end";
            gap =
              Algebra.Exact_gap { anc_level = "T.level"; desc_level = "U.level"; k = 1 };
            out = None;
          }
        in
        let plan =
          Algebra.Distinct
            (Algebra.Union
               [
                 Algebra.Project
                   ( [ "T.start" ],
                     Algebra.Select
                       ( Algebra.Or
                           ( Algebra.Not (Algebra.Cmp (Algebra.Ne, Algebra.Col "T.start", Algebra.Const (Value.Int 1))),
                             Algebra.True ),
                         Algebra.Djoin
                           ( spec,
                             access (Algebra.Index_eq { column = "start"; value = Value.Int 1 }),
                             access (Algebra.Index_range { column = "start"; lo = None; hi = None }) ) ) );
                 Algebra.Theta_join (Algebra.True, access Algebra.Full_scan, access Algebra.Full_scan);
               ])
        in
        let printed = Algebra.to_string plan in
        List.iter
          (fun needle -> Test_util.check_bool needle true (contains printed needle))
          [ "δ"; "∪"; "π"; "σ"; "⋈D"; "⋈" ] );
    ( "value rendering quotes strings SQL-style",
      fun () ->
        Test_util.check_string "plain" "'x'" (Value.to_string (Value.Str "x"));
        Test_util.check_string "escape" "'O''Brien'" (Value.to_string (Value.Str "O'Brien"));
        Test_util.check_string "null" "NULL" (Value.to_string Value.Null) );
    ( "translator and engine names",
      fun () ->
        Test_util.check_bool "all distinct" true
          (let names =
             List.map Blas.translator_name
               [ Blas.D_labeling; Blas.Split; Blas.Pushup; Blas.Unfold; Blas.Auto2 ]
           in
           List.sort_uniq compare names = List.sort compare names);
        Test_util.check_string "rdbms" "RDBMS" (Blas.engine_name Blas.Rdbms);
        Test_util.check_string "twig" "TwigJoin" (Blas.engine_name Blas.Twig) );
    ( "decompose rejects the baseline translator",
      fun () ->
        let storage = Blas.index "<a/>" in
        match Blas.decompose storage Blas.D_labeling (Blas.query "/a") with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument" );
    ( "run_union of nothing is empty",
      fun () ->
        let storage = Blas.index "<a/>" in
        let report = Blas.run_union storage ~engine:Blas.Rdbms ~translator:Blas.Pushup [] in
        Test_util.check_bool "no answers" true (report.Blas.starts = []);
        Test_util.check_bool "no sql" true (report.Blas.sql = None) );
    ( "materialize skips unknown positions",
      fun () ->
        let storage = Blas.index "<a><b/></a>" in
        Test_util.check_int "only the real one" 1
          (List.length (Blas.materialize storage [ 999; 2 ])) );
    ( "suffix query printing",
      fun () ->
        let storage = Blas.index "<a><b>v</b></a>" in
        let branches = Blas.decompose storage Blas.Pushup (Blas.query "/a[b != \"v\"]") in
        let printed =
          String.concat "\n"
            (List.map (Format.asprintf "%a" Blas.Suffix_query.pp) branches)
        in
        Test_util.check_bool "shows inequality" true (contains printed "!=") );
    ( "interval width and point checks",
      fun () ->
        let b = Bignum.of_int in
        let i = Interval.make (b 5) (b 9) in
        Test_util.check_string "width" "5"
          (Bignum.to_string (Interval.width i));
        Test_util.check_bool "not a point" false (Interval.is_point i);
        Test_util.check_bool "point" true
          (Interval.is_point (Interval.make (b 3) (b 3))) );
    ( "tag table lookups",
      fun () ->
        let t = Tag_table.create ~tags:[ "b"; "a"; "b" ] ~height:2 in
        Test_util.check_int "deduplicated" 2 (Tag_table.tag_count t);
        Test_util.check_bool "sorted order" true
          (Tag_table.tags t = [ "a"; "b" ]);
        Test_util.check_string "index round trip" "a"
          (Tag_table.tag_of_index t (Option.get (Tag_table.index t "a")));
        Test_util.check_bool "unknown" true (Tag_table.index t "z" = None) );
  ]

let suite = List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
