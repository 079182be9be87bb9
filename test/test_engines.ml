(** Integration tests: every translator on every engine must agree with
    the naive tree-pattern oracle, on handcrafted documents and on
    random document/query pairs.  This is the end-to-end correctness
    statement for the whole system. *)

let translators =
  [ Blas.D_labeling; Blas.Split; Blas.Pushup; Blas.Unfold; Blas.Auto2 ]

let engines = [ Blas.Rdbms; Blas.Twig ]

let agree_with_oracle storage query =
  let expected = Blas.oracle storage query in
  List.for_all
    (fun translator ->
      List.for_all
        (fun engine ->
          Blas.answers storage ~engine ~translator query = expected)
        engines)
    translators

let check_query storage s =
  let query = Blas.query s in
  let expected = Blas.oracle storage query in
  List.iter
    (fun translator ->
      List.iter
        (fun engine ->
          let got = Blas.answers storage ~engine ~translator query in
          Alcotest.(check (list int))
            (Printf.sprintf "%s/%s: %s" (Blas.translator_name translator)
               (Blas.engine_name engine) s)
            expected got)
        engines)
    translators

let protein_xml =
  "<proteinDatabase><proteinEntry><protein><name>cytochrome \
   c</name><classification><superfamily>cytochrome \
   c</superfamily></classification></protein><reference><refinfo><authors><author>Evans, \
   M.J.</author></authors><year>2001</year><title>The human somatic \
   cytochrome c gene</title></refinfo></reference></proteinEntry><proteinEntry><protein><name>other \
   protein</name><classification><superfamily>globin</superfamily></classification></protein><reference><refinfo><authors><author>Smith, \
   A.B.</author></authors><year>1999</year><title>Another \
   paper</title></refinfo></reference></proteinEntry></proteinDatabase>"

let recursive_xml =
  "<site><regions><asia><item><description><parlist><listitem><parlist><listitem><text>deep</text></listitem></parlist></listitem><listitem><text>shallow</text></listitem></parlist></description><shipping>yes</shipping></item><item><description><text>flat</text></description></item></asia></regions></site>"

let storage_tests =
  let protein = lazy (Blas.index protein_xml) in
  let recursive = lazy (Blas.index recursive_xml) in
  [
    ( "paper's motivating query",
      fun () ->
        check_query (Lazy.force protein)
          "/proteinDatabase/proteinEntry[protein//superfamily = \"cytochrome \
           c\"]/reference/refinfo[//author = \"Evans, M.J.\"][year = \
           \"2001\"]/title" );
    ( "suffix path queries",
      fun () ->
        let s = Lazy.force protein in
        check_query s "/proteinDatabase/proteinEntry/protein/name";
        check_query s "//protein/name";
        check_query s "//name" );
    ( "path queries with internal descendant axes",
      fun () ->
        let s = Lazy.force protein in
        check_query s "/proteinDatabase//author";
        check_query s "/proteinDatabase/proteinEntry//superfamily" );
    ( "value predicates select the right branch",
      fun () ->
        let s = Lazy.force protein in
        check_query s "/proteinDatabase/proteinEntry[reference/refinfo/year = \"1999\"]/protein/name";
        check_query s "//refinfo[year = \"2001\"]/title" );
    ( "queries with empty answers",
      fun () ->
        let s = Lazy.force protein in
        check_query s "/proteinDatabase/zzz";
        check_query s "//unknownTag";
        check_query s "//refinfo[year = \"1875\"]/title" );
    ( "recursive data: descendant axes at several depths",
      fun () ->
        let s = Lazy.force recursive in
        check_query s "//parlist/listitem";
        check_query s "/site/regions//listitem//text";
        check_query s "/site/regions/asia/item[shipping]/description";
        check_query s "//listitem[//text = \"deep\"]" );
    ( "wildcard queries (schema-expanded)",
      fun () ->
        let s = Lazy.force recursive in
        check_query s "/site/*/asia/item/description";
        check_query s "//item/*" );
    ( "query root anchored with // can bind anywhere",
      fun () ->
        let s = Lazy.force recursive in
        check_query s "//description/text";
        check_query s "//item[description//text]" );
    ( "or-queries run as unions on every translator and engine",
      fun () ->
        let s = Lazy.force protein in
        List.iter
          (fun qs ->
            let queries = Blas.query_union qs in
            let expected = Blas.oracle_union s queries in
            List.iter
              (fun translator ->
                List.iter
                  (fun engine ->
                    let report = Blas.run_union s ~engine ~translator queries in
                    Alcotest.(check (list int))
                      (Printf.sprintf "%s/%s: %s"
                         (Blas.translator_name translator)
                         (Blas.engine_name engine) qs)
                      expected report.Blas.starts)
                  engines)
              translators)
          [
            "//refinfo[year = \"2001\" or year = \"1999\"]/title";
            "/proteinDatabase/proteinEntry[protein/name or protein//superfamily]/reference";
            "//authors[author = \"Evans, M.J.\" or author = \"Smith, A.B.\"]";
          ] );
    ( "materialize rebuilds answer subtrees",
      fun () ->
        let s = Lazy.force protein in
        let starts =
          Blas.answers s ~engine:Blas.Rdbms ~translator:Blas.Pushup
            (Blas.query "//refinfo/year")
        in
        let trees = Blas.materialize s starts in
        Test_util.check_int "all rebuilt" (List.length starts) (List.length trees);
        Test_util.check_bool "first year" true
          (match trees with
          | Blas_xml.Types.Element ("year", [ Blas_xml.Types.Content _ ]) :: _ -> true
          | _ -> false) );
  ]

(* ------------------------------------------------------------------ *)
(* Late materialization: the plan shapes of QS1 and QS3                *)

(* The columns each access of [plan] reads, by alias, and the columns
   its outermost D-join emits. *)
let rec access_cols = function
  | Blas_rel.Algebra.Access { alias; cols; _ } -> [ (alias, cols) ]
  | Select (_, p) | Project (_, p) | Distinct p -> access_cols p
  | Theta_join (_, a, b) | Djoin (_, a, b) -> access_cols a @ access_cols b
  | Union ps -> List.concat_map access_cols ps

let rec top_djoin_out = function
  | Blas_rel.Algebra.Djoin (d, _, _) -> d.Blas_rel.Algebra.out
  | Select (_, p) | Project (_, p) | Distinct p -> top_djoin_out p
  | _ -> None

(* A regression to whole-row reads fails here: QS1's one access reads
   only [start]; in QS3 the LINE access reads [start] (and [level]
   where a level gap joins it), SCENE the interval and level, TITLE
   what its join and value predicate read, and only the answer column
   leaves the last join. *)
let test_plan_columns () =
  let storage = Blas.index_of_tree (Blas_datagen.Shakespeare.generate ~plays:1 ()) in
  let plan translator qs =
    match Blas.plan_for storage translator (Blas.query qs) with
    | Some p -> p
    | None -> Alcotest.fail ("no plan for " ^ qs)
  in
  let cols = Alcotest.(list (pair string (option (list string)))) in
  let some l = Some l in
  List.iter
    (fun translator ->
      let name = Blas.translator_name translator in
      Alcotest.check cols (name ^ " QS1")
        [ ("T1", some [ "start" ]) ]
        (access_cols (plan translator "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE"));
      let qs3 =
        plan translator
          "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public place.\"]//LINE"
      in
      Alcotest.check cols (name ^ " QS3")
        [
          ("T1", some [ "start"; "end"; "level" ]);
          ("T2", some [ "start"; "level"; "data" ]);
          ( "T3",
            some (if translator = Blas.Unfold then [ "start"; "level" ] else [ "start" ])
          );
        ]
        (access_cols qs3);
      Alcotest.(check (option (list string)))
        (name ^ " QS3 last join") (Some [ "T3.start" ]) (top_djoin_out qs3))
    [ Blas.Split; Blas.Pushup; Blas.Unfold ]

let random_props =
  [
    Test_util.qtest ~count:300 "all translators x engines match the oracle"
      (QCheck2.Gen.pair Test_util.doc_gen (Test_util.query_gen ()))
      (fun (tree, query) ->
        let storage = Blas.index_of_tree tree in
        agree_with_oracle storage query);
    Test_util.qtest ~count:100
      "wildcard queries match the oracle after schema expansion"
      (QCheck2.Gen.pair Test_util.doc_gen (Test_util.query_gen ~wildcards:true ()))
      (fun (tree, query) ->
        let storage = Blas.index_of_tree tree in
        agree_with_oracle storage query);
    Test_util.qtest ~count:100 "random unions agree with the union oracle"
      (QCheck2.Gen.pair Test_util.doc_gen
         (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) (Test_util.query_gen ())))
      (fun (tree, queries) ->
        let storage = Blas.index_of_tree tree in
        let expected = Blas.oracle_union storage queries in
        List.for_all
          (fun translator ->
            List.for_all
              (fun engine ->
                (Blas.run_union storage ~engine ~translator queries).Blas.starts
                = expected)
              engines)
          translators);
    Test_util.qtest ~count:100 "replication scales answers exactly"
      (QCheck2.Gen.pair Test_util.doc_gen (Test_util.query_gen ()))
      (fun (tree, query) ->
        (* Every translator stays oracle-correct on replicated data, and
           result cardinality scales by the factor (queries anchored at
           the root are per-copy; // roots too since copies are disjoint
           subtrees under the same root). *)
        let storage3 = Blas.index_of_tree (Blas_xml.Replicate.by_factor 3 tree) in
        agree_with_oracle storage3 query);
  ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) storage_tests
  @ [
      Alcotest.test_case "plans read only the columns they use" `Quick
        test_plan_columns;
    ]
  @ random_props
