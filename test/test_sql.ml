(** Tests for the SQL layer: printer/parser round trips and the
    SQL-to-algebra compiler (access-path selection, D-join recognition,
    unions). *)

open Blas_rel

let parse = Sql_parse.parse

let print = Sql_print.to_string

let roundtrip s = print (parse s)

(* Collapses the printer's layout whitespace for comparison. *)
let norm s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun w -> w <> "")
  |> String.concat " "

let parser_unit_tests =
  [
    ( "simple select",
      fun () ->
        match parse "select * from sp" with
        | Sql_ast.Select { projection = Sql_ast.Star; from = [ ("sp", "sp") ]; where = [] } -> ()
        | _ -> Alcotest.fail "unexpected AST" );
    ( "aliases with and without AS",
      fun () ->
        match parse "select T1.a from sp T1, sd as T2" with
        | Sql_ast.Select { from = [ ("sp", "T1"); ("sd", "T2") ]; _ } -> ()
        | _ -> Alcotest.fail "unexpected FROM" );
    ( "where conjunction with arithmetic",
      fun () ->
        match parse "select * from t where a.x < b.y and b.l = a.l + 2" with
        | Sql_ast.Select { where = [ _; { rhs = Sql_ast.Add (Sql_ast.Col "a.l", Sql_ast.Int 2); _ } ]; _ } -> ()
        | _ -> Alcotest.fail "unexpected WHERE" );
    ( "string literals with escaped quotes",
      fun () ->
        match parse "select * from t where d = 'O''Brien'" with
        | Sql_ast.Select { where = [ { rhs = Sql_ast.Str "O'Brien"; _ } ]; _ } -> ()
        | _ -> Alcotest.fail "unexpected literal" );
    ( "big integer literals",
      fun () ->
        match parse "select * from t where p = 345830491796013056999" with
        | Sql_ast.Select { where = [ { rhs = Sql_ast.Big b; _ } ]; _ } ->
          Test_util.check_string "value" "345830491796013056999"
            (Blas_label.Bignum.to_string b)
        | _ -> Alcotest.fail "unexpected literal" );
    ( "union of blocks",
      fun () ->
        match parse "(select * from t) union (select * from u)" with
        | Sql_ast.Union [ _; _ ] -> ()
        | _ -> Alcotest.fail "unexpected UNION" );
    ( "keywords are case-insensitive",
      fun () ->
        match parse "SELECT T.a FROM t AS T WHERE T.a >= 1" with
        | Sql_ast.Select _ -> ()
        | _ -> Alcotest.fail "unexpected AST" );
    ( "errors",
      fun () ->
        let bad s =
          match parse s with
          | exception Sql_parse.Error _ -> ()
          | _ -> Alcotest.fail ("should not parse: " ^ s)
        in
        bad "select";
        bad "select * from";
        bad "select * from t where";
        bad "select * from t where 1";
        bad "select * from t where a = 'unterminated" );
    ( "a trailing identifier is an alias, not an error",
      fun () ->
        match parse "select * from t extra" with
        | Sql_ast.Select { from = [ ("t", "extra") ]; _ } -> ()
        | _ -> Alcotest.fail "expected alias" );
    ( "round trips",
      fun () ->
        List.iter
          (fun s -> Test_util.check_string s s (norm (roundtrip s)))
          [
            "select * from sp";
            "select T1.start from sp T1, sp T2 where T1.start < T2.start and \
             T1.end > T2.end and T2.level = T1.level + 2";
          ] );
    ( "join_count",
      fun () ->
        let q = parse "select * from a, b, c" in
        Test_util.check_int "two joins" 2 (Sql_ast.join_count q) );
  ]

(* ------------------------------------------------------------------ *)
(* Compiler                                                           *)

let v_int i = Value.Int i

let node_table rows =
  Table.load (Page_store.memory ()) ~name:"sp"
    ~schema:(Schema.of_list [ "plabel"; "start"; "end"; "level"; "data" ])
    ~cluster_key:[ "plabel"; "start" ]
    (List.map
       (fun (p, s, e, l, d) ->
         Tuple.of_list
           [ v_int p; v_int s; v_int e; v_int l;
             (match d with None -> Value.Null | Some d -> Value.Str d) ])
       rows)

(* A tiny two-branch document:
   root(1,10,1) a(2,5,2) b(3,4,3) a(6,9,2) b(7,8,3); plabels: root=1 a=2 b=3 *)
let sample =
  node_table
    [
      (1, 1, 10, 1, None);
      (2, 2, 5, 2, None);
      (3, 3, 4, 3, Some "x");
      (2, 6, 9, 2, None);
      (3, 7, 8, 3, Some "y");
    ]

let catalog name = if name = "sp" then Some sample else None

let compile s = Sql_compile.compile ~catalog (parse s)

let run s = Executor.run (compile s)

let compiler_unit_tests =
  [
    ( "equality on the clustered column becomes an index lookup",
      fun () ->
        match compile "select * from sp T where T.plabel = 3" with
        | Algebra.Access { path = Algebra.Index_eq { column = "plabel"; _ }; _ } -> ()
        | p -> Alcotest.fail ("unexpected plan: " ^ Algebra.to_string p) );
    ( "range on the clustered column becomes an index range",
      fun () ->
        match compile "select * from sp T where T.plabel >= 2 and T.plabel <= 3" with
        | Algebra.Access { path = Algebra.Index_range { column = "plabel"; lo = Some _; hi = Some _ }; _ } -> ()
        | p -> Alcotest.fail ("unexpected plan: " ^ Algebra.to_string p) );
    ( "clustered range beats data equality; data goes residual",
      fun () ->
        match compile "select * from sp T where T.plabel >= 2 and T.plabel <= 3 and T.data = 'x'" with
        | Algebra.Access { path = Algebra.Index_range { column = "plabel"; _ }; residual; _ } ->
          Test_util.check_bool "data residual" true (residual <> Algebra.True)
        | p -> Alcotest.fail ("unexpected plan: " ^ Algebra.to_string p) );
    ( "start and data predicates go residual on a scan",
      fun () ->
        (* Only the clustering column is served by the page directory. *)
        List.iter
          (fun sql ->
            match compile sql with
            | Algebra.Access { path = Algebra.Full_scan; residual; _ } ->
              Test_util.check_bool sql true (residual <> Algebra.True)
            | p -> Alcotest.fail ("unexpected plan: " ^ Algebra.to_string p))
          [
            "select * from sp T where T.data = 'x'";
            "select * from sp T where T.start >= 2 and T.start <= 4";
            "select * from sp T where T.start = 3";
          ];
        Test_util.check_int "answers" 1
          (Relation.cardinality (run "select * from sp T where T.data = 'x'")) );
    ( "unindexed predicate forces a scan with residual",
      fun () ->
        match compile "select * from sp T where T.level = 2" with
        | Algebra.Access { path = Algebra.Full_scan; residual = Algebra.Cmp _; _ } -> ()
        | p -> Alcotest.fail ("unexpected plan: " ^ Algebra.to_string p) );
    ( "D-join pattern is recognized",
      fun () ->
        let plan =
          compile
            "select T2.start from sp T1, sp T2 where T1.plabel = 2 and T2.plabel \
             = 3 and T1.start < T2.start and T1.end > T2.end"
        in
        Test_util.check_int "djoins" 1 (Algebra.count_djoins plan);
        Test_util.check_int "thetas" 0 (Algebra.count_joins plan - Algebra.count_djoins plan) );
    ( "level gap variants are recognized",
      fun () ->
        let with_gap g =
          compile
            (Printf.sprintf
               "select T2.start from sp T1, sp T2 where T1.start < T2.start and \
                T1.end > T2.end and %s" g)
        in
        let rec find_gap = function
          | Algebra.Djoin (spec, _, _) -> Some spec.Algebra.gap
          | Algebra.Select (_, p) | Algebra.Project (_, p) | Algebra.Distinct p -> find_gap p
          | _ -> None
        in
        (match find_gap (with_gap "T2.level = T1.level + 1") with
        | Some (Algebra.Exact_gap { k = 1; _ }) -> ()
        | _ -> Alcotest.fail "expected Exact_gap 1");
        (match find_gap (with_gap "T1.level = T2.level - 2") with
        | Some (Algebra.Exact_gap { k = 2; _ }) -> ()
        | _ -> Alcotest.fail "expected Exact_gap 2");
        match find_gap (with_gap "T2.level >= T1.level + 2") with
        | Some (Algebra.Min_gap { k = 2; _ }) -> ()
        | _ -> Alcotest.fail "expected Min_gap 2" );
    ( "full D-join query evaluates correctly",
      fun () ->
        let r =
          run
            "select T2.start from sp T1, sp T2 where T1.plabel = 2 and T2.plabel \
             = 3 and T1.start < T2.start and T1.end > T2.end and T2.level = \
             T1.level + 1"
        in
        Test_util.check_bool "starts" true
          (List.sort compare (List.map Value.to_int (Relation.column r "T2.start"))
          = [ 3; 7 ]) );
    ( "union compiles and evaluates",
      fun () ->
        let r =
          run
            "(select T.start from sp T where T.plabel = 2) union (select T.start \
             from sp T where T.plabel = 3)"
        in
        Test_util.check_int "rows" 4 (Relation.cardinality r) );
    ( "unknown table rejected",
      fun () ->
        match compile "select * from nope" with
        | exception Sql_compile.Error _ -> ()
        | _ -> Alcotest.fail "expected Sql_compile.Error" );
    ( "unqualified columns in multi-table queries rejected",
      fun () ->
        match compile "select * from sp T1, sp T2 where start = 1" with
        | exception Sql_compile.Error _ -> ()
        | _ -> Alcotest.fail "expected Sql_compile.Error" );
    ( "disconnected FROM becomes a cross product",
      fun () ->
        let r = run "select T1.start from sp T1, sp T2 where T1.plabel = 1 and T2.plabel = 1" in
        Test_util.check_int "rows" 1 (Relation.cardinality r) );
    ( "alias sort order cannot invert the D-join (regression)",
      fun () ->
        (* Pair keys sort alphabetically, and "T10" < "T2"; the bare
           interval conjunction is orientation-ambiguous when read from
           the wrong side, which once produced an inverted sweep and an
           unconsumable gap condition.  The column-name guard must keep
           the true orientation. *)
        let r =
          run
            "select T10.start from sp T2, sp T10 where T2.plabel = 2 and \
             T10.plabel = 3 and T2.start < T10.start and T2.end > T10.end and \
             T10.level = T2.level + 1"
        in
        Test_util.check_bool "starts" true
          (List.sort compare (List.map Value.to_int (Relation.column r "T10.start"))
          = [ 3; 7 ]) );
    ( "non start/end interval columns fall back to a theta join",
      fun () ->
        let plan =
          compile
            "select T1.start from sp T1, sp T2 where T1.plabel < T2.plabel and \
             T1.start > T2.start"
        in
        Test_util.check_int "no djoin" 0 (Algebra.count_djoins plan);
        Test_util.check_int "one theta" 1 (Algebra.count_joins plan) );
    ( "Min_gap D-join evaluates the lower bound",
      fun () ->
        (* root(1,10,1) contains b nodes at levels 2 and 3; >= 2 keeps
           only the deeper one. *)
        let r =
          run
            "select T2.start from sp T1, sp T2 where T1.plabel = 1 and \
             T2.plabel = 3 and T1.start < T2.start and T1.end > T2.end and \
             T2.level >= T1.level + 2"
        in
        Test_util.check_int "matches" 2 (Relation.cardinality r) );
  ]

(* Random SQL ASTs for the print/parse round trip. *)
module Gen = QCheck2.Gen

let sql_gen =
  let open Gen in
  let name = oneofl [ "T1.a"; "T1.b"; "T2.a"; "T2.lvl" ] in
  let expr =
    oneof
      [
        map (fun c -> Sql_ast.Col c) name;
        map (fun i -> Sql_ast.Int i) (int_range 0 1000);
        map (fun s -> Sql_ast.Str s) (oneofl [ "x"; "O'Brien"; "a b" ]);
        map2 (fun c k -> Sql_ast.Add (Sql_ast.Col c, Sql_ast.Int k)) name (int_range 1 5);
        map2 (fun c k -> Sql_ast.Sub (Sql_ast.Col c, Sql_ast.Int k)) name (int_range 1 5);
      ]
  in
  let cmp = oneofl [ Sql_ast.Eq; Sql_ast.Ne; Sql_ast.Lt; Sql_ast.Le; Sql_ast.Gt; Sql_ast.Ge ] in
  let cond =
    let* lhs = map (fun c -> Sql_ast.Col c) name in
    let* c = cmp in
    let* rhs = expr in
    return { Sql_ast.lhs; cmp = c; rhs }
  in
  let block =
    let* projection =
      oneof [ return Sql_ast.Star; map (fun c -> Sql_ast.Columns [ c ]) name ]
    in
    let* where = list_size (int_range 0 4) cond in
    return (Sql_ast.Select { projection; from = [ ("sp", "T1"); ("sd", "T2") ]; where })
  in
  oneof
    [ block; map (fun bs -> Sql_ast.Union bs) (list_size (int_range 2 3) block) ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) parser_unit_tests
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) compiler_unit_tests
  @ [
      Test_util.qtest "print/parse round trip on random SQL" sql_gen (fun q ->
          let s = Sql_print.to_string q in
          Sql_print.to_string (Sql_parse.parse s) = s);
    ]
