(** Tests for the relational substrate: schemas, tuples, relations,
    clustered tables and counters, the executor, and the structural
    join. *)

open Blas_rel

let v_int i = Value.Int i

let v_str s = Value.Str s

let mk_table ?(name = "t") ?(cluster = [ "k" ]) columns rows =
  Table.load (Page_store.memory ()) ~name
    ~schema:(Schema.of_list columns)
    ~cluster_key:cluster
    (List.map (fun r -> Tuple.of_list r) rows)

let unit_tests =
  [
    ( "deleting a page's first row rewrites only that page",
      fun () ->
        (* The delete searches the page before its own (whose tail could
           hold equal keys) but must rewrite only the page it changes. *)
        let store = Page_store.memory ~page_size:96 ~codec:Codec.V1 () in
        let row i = Tuple.of_list [ v_int (1000 + i); v_int i ] in
        let t =
          Table.load store ~name:"t"
            ~schema:(Schema.of_list [ "k"; "v" ])
            ~cluster_key:[ "k" ]
            (List.init 30 row)
        in
        Test_util.check_bool "several pages" true (Table.page_count t >= 3);
        let first = (Table.directory t).(1).Table.de_first in
        let c = Counters.create () in
        Test_util.check_int "writes" 1
          (Table.apply_edits t c ~deletes:[ first ] ~inserts:[]);
        Test_util.check_int "rows left" 29 (Table.cardinality t) );
    ( "schema rejects duplicates",
      fun () ->
        Alcotest.check_raises "dup" (Invalid_argument "Schema.of_list: duplicate column a")
          (fun () -> ignore (Schema.of_list [ "a"; "a" ])) );
    ( "schema lookup and qualify",
      fun () ->
        let s = Schema.of_list [ "a"; "b" ] in
        Test_util.check_int "index" 1 (Schema.index_of s "b");
        Test_util.check_bool "mem" false (Schema.mem s "c");
        Test_util.check_bool "qualified" true
          (Schema.columns (Schema.qualify "T" s) = [ "T.a"; "T.b" ]) );
    ( "value ordering",
      fun () ->
        Test_util.check_bool "ints" true (Value.compare (v_int 1) (v_int 2) < 0);
        Test_util.check_bool "strings" true (Value.compare (v_str "a") (v_str "b") < 0);
        Test_util.check_bool "null first" true (Value.compare Value.Null (v_int 0) < 0);
        let b = Value.Big (Blas_label.Bignum.of_int 5) in
        Test_util.check_bool "big eq" true (Value.equal b b) );
    ( "relation sort and distinct",
      fun () ->
        let r =
          Relation.make (Schema.of_list [ "a" ])
            [|
              Tuple.of_list [ v_int 3 ];
              Tuple.of_list [ v_int 1 ];
              Tuple.of_list [ v_int 3 ];
            |]
        in
        let sorted = Relation.sort_by r [ "a" ] in
        Test_util.check_bool "sorted" true
          (Relation.column sorted "a" = [ v_int 1; v_int 3; v_int 3 ]);
        Test_util.check_int "distinct" 2 (Relation.cardinality (Relation.distinct r)) );
    ( "table clusters rows and serves index lookups",
      fun () ->
        let t =
          mk_table [ "k"; "v" ]
            [ [ v_int 3; v_str "c" ]; [ v_int 1; v_str "a" ]; [ v_int 2; v_str "b" ] ]
        in
        let c = Counters.create () in
        let rows = Table.scan t c in
        Test_util.check_int "scan reads all" 3 c.Counters.tuples_read;
        Test_util.check_bool "clustered order" true
          (List.map (fun r -> Tuple.get r 0) rows = [ v_int 1; v_int 2; v_int 3 ]);
        Counters.reset c;
        let hit = Table.index_eq t c ~column:"k" (v_int 2) in
        Test_util.check_int "eq reads one" 1 c.Counters.tuples_read;
        Test_util.check_int "one seek" 1 c.Counters.index_seeks;
        Test_util.check_bool "right row" true
          (match hit with [ r ] -> Tuple.get r 1 = v_str "b" | _ -> false);
        Counters.reset c;
        let range = Table.index_range t c ~column:"k" ~lo:(Some (v_int 2)) ~hi:None in
        Test_util.check_int "range reads two" 2 (List.length range) );
    ( "missing index raises Not_found",
      fun () ->
        let t = mk_table [ "k"; "v" ] [ [ v_int 1; v_str "a" ] ] in
        let c = Counters.create () in
        match Table.index_eq t c ~column:"v" (v_str "a") with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found" );
    ( "executor: select and project",
      fun () ->
        let t = mk_table [ "k"; "v" ] [ [ v_int 1; v_str "a" ]; [ v_int 2; v_str "b" ] ] in
        let plan =
          Algebra.Project
            ( [ "T.v" ],
              Algebra.Select
                ( Algebra.Cmp (Algebra.Ge, Algebra.Col "T.k", Algebra.Const (v_int 2)),
                  Algebra.Access
                    { table = t; alias = "T"; path = Algebra.Full_scan; residual = Algebra.True; cols = None } ) )
        in
        let r = Executor.run plan in
        Test_util.check_bool "value" true (Relation.column r "T.v" = [ v_str "b" ]) );
    ( "executor: theta join",
      fun () ->
        let t1 = mk_table ~name:"t1" [ "k"; "v" ] [ [ v_int 1; v_str "a" ]; [ v_int 2; v_str "b" ] ] in
        let t2 = mk_table ~name:"t2" [ "k"; "w" ] [ [ v_int 1; v_str "x" ]; [ v_int 3; v_str "y" ] ] in
        let access t alias =
          Algebra.Access { table = t; alias; path = Algebra.Full_scan; residual = Algebra.True; cols = None }
        in
        let plan =
          Algebra.Theta_join
            ( Algebra.Cmp (Algebra.Eq, Algebra.Col "A.k", Algebra.Col "B.k"),
              access t1 "A", access t2 "B" )
        in
        let c = Counters.create () in
        let r = Executor.run ~counters:c plan in
        Test_util.check_int "one match" 1 (Relation.cardinality r);
        Test_util.check_int "join counted" 1 c.Counters.theta_joins );
    ( "executor: union and distinct",
      fun () ->
        let t = mk_table [ "k" ] [ [ v_int 1 ]; [ v_int 2 ] ] in
        let access =
          Algebra.Access { table = t; alias = "T"; path = Algebra.Full_scan; residual = Algebra.True; cols = None }
        in
        let r = Executor.run (Algebra.Union [ access; access ]) in
        Test_util.check_int "duplicates kept" 4 (Relation.cardinality r);
        let r = Executor.run (Algebra.Distinct (Algebra.Union [ access; access ])) in
        Test_util.check_int "distinct" 2 (Relation.cardinality r) );
    ( "executor: NULL comparisons are false",
      fun () ->
        let t = mk_table [ "k"; "v" ] [ [ v_int 1; Value.Null ] ] in
        let plan =
          Algebra.Select
            ( Algebra.Cmp (Algebra.Eq, Algebra.Col "T.v", Algebra.Const (v_str "a")),
              Algebra.Access
                { table = t; alias = "T"; path = Algebra.Full_scan; residual = Algebra.True; cols = None } )
        in
        Test_util.check_int "no rows" 0 (Relation.cardinality (Executor.run plan)) );
    ( "executor: unknown column fails",
      fun () ->
        let t = mk_table [ "k" ] [ [ v_int 1 ] ] in
        let plan =
          Algebra.Project
            ( [ "T.zzz" ],
              Algebra.Access
                { table = t; alias = "T"; path = Algebra.Full_scan; residual = Algebra.True; cols = None } )
        in
        match Executor.run plan with
        | exception Executor.Error _ -> ()
        | _ -> Alcotest.fail "expected Executor.Error" );
    ( "plan inspection counts joins and selections",
      fun () ->
        let t = mk_table [ "k" ] [ [ v_int 1 ] ] in
        let acc path = Algebra.Access { table = t; alias = "T"; path; residual = Algebra.True; cols = None } in
        let spec =
          {
            Algebra.anc_start = "a";
            anc_end = "b";
            desc_start = "c";
            desc_end = "d";
            gap = Algebra.Any_gap;
            out = None;
          }
        in
        let plan =
          Algebra.Djoin
            ( spec,
              acc (Algebra.Index_eq { column = "k"; value = v_int 1 }),
              acc (Algebra.Index_range { column = "k"; lo = None; hi = Some (v_int 3) }) )
        in
        Test_util.check_int "djoins" 1 (Algebra.count_djoins plan);
        Test_util.check_int "joins" 1 (Algebra.count_joins plan);
        let profile = Algebra.selection_profile plan in
        Test_util.check_int "equalities" 1 profile.Algebra.equality;
        Test_util.check_int "ranges" 1 profile.Algebra.range );
  ]

(* ------------------------------------------------------------------ *)
(* Structural join vs the naive nested loop                           *)

module Gen = QCheck2.Gen

(* Random interval sets come from real documents so intervals nest. *)
let intervals_of_tree tree =
  List.map
    (fun ((l : Blas_label.Dlabel.t), _, _) ->
      Tuple.of_list [ v_int l.start; v_int l.fin; v_int l.level ])
    (Blas_label.Dlabel.label_tree tree)

let side = { Structural_join.start_col = 0; end_col = 1; level_col = 2 }

let all_cols = [| 0; 1; 2 |]

let int_at t i = Value.to_int (Tuple.get t i)

let gap_holds gap a d =
  match gap with
  | Structural_join.Any -> true
  | Structural_join.Exact k -> int_at d 2 = int_at a 2 + k
  | Structural_join.Min k -> int_at d 2 >= int_at a 2 + k

(* The nested-loop oracle: every containing pair passing the gap, with
   the requested columns of each side. *)
let naive_pairs ?(anc_out = all_cols) ?(desc_out = all_cols) anc desc gap =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun d ->
          if int_at a 0 < int_at d 0 && int_at a 1 > int_at d 1 && gap_holds gap a d
          then Some (Tuple.concat (Tuple.project anc_out a) (Tuple.project desc_out d))
          else None)
        desc)
    anc

let fast_pairs ?(anc_out = all_cols) ?(desc_out = all_cols) anc desc gap =
  Structural_join.pairs ~anc ~desc ~anc_side:side ~desc_side:side ~gap ~anc_out
    ~desc_out

let same_bag a b = List.sort Tuple.compare a = List.sort Tuple.compare b

let random_subset =
  let open Gen in
  fun items ->
    let* keep = list_size (return (List.length items)) bool in
    return (List.filteri (fun i _ -> List.nth keep i) items)

let structural_join_prop =
  let gen =
    let open Gen in
    let* tree = Test_util.doc_gen in
    let intervals = intervals_of_tree tree in
    let* anc = random_subset intervals in
    let* desc = random_subset intervals in
    return (anc, desc)
  in
  Test_util.qtest "structural join matches nested loop" gen (fun (anc, desc) ->
      same_bag (fast_pairs anc desc Structural_join.Any)
        (naive_pairs anc desc Structural_join.Any))

let structural_join_gap_prop =
  let gen =
    let open Gen in
    let* tree = Test_util.doc_gen in
    let intervals = intervals_of_tree tree in
    let* k = int_range 1 3 in
    return (intervals, k)
  in
  Test_util.qtest "structural join with level filter matches nested loop" gen
    (fun (intervals, k) ->
      let gap = Structural_join.Exact k in
      same_bag (fast_pairs intervals intervals gap) (naive_pairs intervals intervals gap))

(* Random nested intervals in any order (the sort path), an Any, Exact
   or Min gap, and random output columns of each side — empty, all, or
   a reordered subset — against the nested-loop oracle. *)
let structural_join_projection_prop =
  let gen =
    let open Gen in
    let* tree = Test_util.doc_gen in
    let intervals = intervals_of_tree tree in
    let* anc = random_subset intervals >>= shuffle_l in
    let* desc = random_subset intervals >>= shuffle_l in
    let* gap =
      oneof
        [
          return Structural_join.Any;
          map (fun k -> Structural_join.Exact k) (int_range 1 3);
          map (fun k -> Structural_join.Min k) (int_range 1 3);
        ]
    in
    let cols = map Array.of_list (random_subset [ 0; 1; 2 ] >>= shuffle_l) in
    let* anc_out = cols in
    let+ desc_out = cols in
    (anc, desc, gap, anc_out, desc_out)
  in
  Test_util.qtest "structural join with gaps and projections matches nested loop"
    gen (fun (anc, desc, gap, anc_out, desc_out) ->
      same_bag
        (fast_pairs ~anc_out ~desc_out anc desc gap)
        (naive_pairs ~anc_out ~desc_out anc desc gap))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ [
      structural_join_prop;
      structural_join_gap_prop;
      structural_join_projection_prop;
    ]
