(** Tests for the XPath subset: lexer/parser, pretty printer, the
    labeled document model and the naive evaluator. *)

open Blas_xpath

let parse = Parser.parse

let roundtrip s = Pretty.to_string (parse s)

let parser_unit_tests =
  [
    ( "simple path",
      fun () ->
        let q = parse "/a/b/c" in
        Test_util.check_bool "well formed" true (Ast.is_well_formed q);
        Test_util.check_bool "path" true (Ast.is_path q);
        Test_util.check_bool "suffix" true (Ast.is_suffix_path q);
        Test_util.check_int "steps" 3 (Ast.step_count q) );
    ( "suffix path with leading //",
      fun () ->
        let q = parse "//a/b" in
        Test_util.check_bool "suffix" true (Ast.is_suffix_path q);
        Test_util.check_bool "descendant root" true (q.Ast.axis = Ast.Descendant) );
    ( "descendant in the middle is not a suffix path",
      fun () ->
        let q = parse "/a//b" in
        Test_util.check_bool "path" true (Ast.is_path q);
        Test_util.check_bool "not suffix" false (Ast.is_suffix_path q) );
    ( "branches make tree queries",
      fun () ->
        let q = parse "/a[b]/c" in
        Test_util.check_bool "not a path" false (Ast.is_path q);
        Test_util.check_int "children of root" 2 (List.length q.Ast.children) );
    ( "the paper's query Q parses",
      fun () ->
        let q =
          parse
            "/proteinDatabase/proteinEntry[protein//superfamily = \"cytochrome \
             c\"]/reference/refinfo[//author = \"Evans, M.J.\"][year = \
             \"2001\"]/title"
        in
        Test_util.check_bool "well formed" true (Ast.is_well_formed q);
        Test_util.check_int "steps" 9 (Ast.step_count q);
        (* Section 1 counts 8 joins for D-labeling: one per edge. *)
        Test_util.check_int "edges" 8 (Ast.step_count q - 1);
        Test_util.check_int "descendant edges" 2 (Ast.descendant_edge_count q) );
    ( "and-predicates become sibling branches",
      fun () ->
        let q = parse "/a[b and c]/d" in
        Test_util.check_int "children" 3 (List.length q.Ast.children) );
    ( "value on the return node",
      fun () ->
        let q = parse "//a/b = \"v\"" in
        let rec leaf (n : Ast.node) =
          match n.children with [] -> n | c :: _ -> leaf c
        in
        Test_util.check_bool "value" true ((leaf q).value = Some (Ast.Equals "v"));
        Test_util.check_bool "output" true (leaf q).is_output );
    ( "single-quoted and numeric literals",
      fun () ->
        let q = parse "//a[b = 'Daniel, M.'][c = 2001]" in
        match List.map (fun (c : Ast.node) -> c.value) q.Ast.children with
        | [ Some (Ast.Equals "Daniel, M."); Some (Ast.Equals "2001") ] -> ()
        | _ -> Alcotest.fail "unexpected predicate values" );
    ( "wildcards",
      fun () ->
        let q = parse "/a/*/b" in
        Test_util.check_bool "has wildcard" true
          (List.exists (fun t -> t = None)
             (let rec tests (n : Ast.node) =
                Ast.tag_of_test n.test :: List.concat_map tests n.children
              in
              tests q)) );
    ( "attribute steps",
      fun () ->
        let q = parse "/a[@id = \"1\"]/b" in
        match q.Ast.children with
        | [ attr; _ ] -> Test_util.check_bool "tag" true (attr.test = Ast.Tag "@id")
        | _ -> Alcotest.fail "expected two children" );
    ( "predicates may start with //",
      fun () ->
        let q = parse "/a[//b = \"x\"]/c" in
        match q.Ast.children with
        | [ b; _ ] -> Test_util.check_bool "descendant" true (b.axis = Ast.Descendant)
        | _ -> Alcotest.fail "expected two children" );
    ( "nested predicates",
      fun () ->
        let q = parse "/a[b[c and d]/e]/f" in
        Test_util.check_int "branch+main" 2 (List.length q.Ast.children) );
    ( "errors: empty, trailing, missing test",
      fun () ->
        let bad s = match parse s with
          | exception Parser.Error _ -> ()
          | _ -> Alcotest.fail ("should not parse: " ^ s)
        in
        bad "";
        bad "a/b";
        bad "/a/";
        bad "/a[b";
        bad "/a = \"v\"/b";
        bad "/a!";
        bad "/a != ";
        bad "/a]" );
    ( "inequality predicates",
      fun () ->
        let q = parse "//a[b != 'x']/c" in
        (match q.Ast.children with
        | [ b; _ ] ->
          Test_util.check_bool "differs" true (b.value = Some (Ast.Differs "x"))
        | _ -> Alcotest.fail "expected two children");
        Test_util.check_string "round trip" "//a[b != \"x\"]/c"
          (roundtrip "//a[b != 'x']/c") );
    ( "or distributes into a union of tree queries",
      fun () ->
        let qs = Parser.parse_union "/a[b or c]/d" in
        Test_util.check_int "two disjuncts" 2 (List.length qs);
        let printed = List.map Pretty.to_string qs in
        Test_util.check_bool "arms" true
          (printed = [ "/a[b]/d"; "/a[c]/d" ]) );
    ( "or combines across predicates by cross product",
      fun () ->
        Test_util.check_int "2x2" 4
          (List.length (Parser.parse_union "/a[b or c][d or e]/f")) );
    ( "nested or expands recursively",
      fun () ->
        Test_util.check_int "nested" 2
          (List.length (Parser.parse_union "/a[b[c or d]]/e"));
        Test_util.check_int "or in path predicate" 3
          (List.length (Parser.parse_union "//a[b/c or d or e]")) );
    ( "or with and keeps precedence (or binds looser)",
      fun () ->
        let qs = Parser.parse_union "/a[b and c or d]/e" in
        let printed = List.map Pretty.to_string qs in
        Test_util.check_bool "arms" true (printed = [ "/a[b][c]/e"; "/a[d]/e" ]) );
    ( "parse rejects or; parse_union accepts",
      fun () ->
        (match Parser.parse "/a[b or c]" with
        | exception Parser.Error _ -> ()
        | _ -> Alcotest.fail "parse should reject or");
        Test_util.check_int "union ok" 2 (List.length (Parser.parse_union "/a[b or c]")) );
    ( "round trips",
      fun () ->
        List.iter
          (fun s -> Test_util.check_string s s (roundtrip s))
          [
            "/a/b/c";
            "//a/b";
            "/a[b]/c";
            "/a[b][c]/d";
            "/a[//b]/c";
            "/a[b/c]/d";
            "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE";
          ] );
  ]

(* ------------------------------------------------------------------ *)

let doc = Doc.of_tree (Blas_xml.Dom.parse "<r><a><b>x</b><b>y</b></a><b>x</b><a><c><b>x</b></c></a></r>")

let eval s = Naive_eval.starts doc (parse s)

let naive_unit_tests =
  [
    ( "absolute child path",
      fun () ->
        (* <r>=1 <a>=2 <b>=3 x=4 </b>=5 <b>=6 y=7 </b>=8 </a>=9 <b>=10 ... *)
        Test_util.check_int_list "starts" [ 3; 6 ] (eval "/r/a/b") );
    ( "descendant",
      fun () ->
        Test_util.check_int_list "starts" [ 3; 6; 10; 15 ] (eval "//b") );
    ( "value predicate",
      fun () -> Test_util.check_int_list "starts" [ 3; 10; 15 ] (eval "//b = \"x\"") );
    ( "inequality predicate",
      fun () ->
        (* b nodes whose text differs from x: only the "y" one; nodes
           without text satisfy neither comparison. *)
        Test_util.check_int_list "starts" [ 6 ] (eval "//b != \"x\"") );
    ( "branch",
      fun () -> Test_util.check_int_list "starts" [ 14 ] (eval "/r/a/c[b]") );
    ( "branch with value",
      fun () ->
        Test_util.check_int_list "starts" [ 2 ] (eval "/r/a[b = \"y\"]") );
    ( "wildcard",
      fun () -> Test_util.check_int_list "starts" [ 3; 6 ] (eval "/r/*/b") );
    ( "no match",
      fun () -> Test_util.check_int_list "starts" [] (eval "/r/zzz") );
    ( "root by descendant axis",
      fun () -> Test_util.check_int_list "starts" [ 1 ] (eval "//r") );
    ( "deduplication across embeddings",
      fun () ->
        (* /r has two a-children; //a with branch b matches both. *)
        Test_util.check_int_list "starts" [ 2 ] (eval "//a[b]") );
  ]

let doc_unit_tests =
  [
    ( "find_by_start",
      fun () ->
        (match Doc.find_by_start doc 3 with
        | Some node -> Test_util.check_string "tag" "b" node.Doc.tag
        | None -> Alcotest.fail "expected a node");
        Test_util.check_bool "miss" true (Doc.find_by_start doc 4 = None) );
    ( "subtree rebuilds the answer",
      fun () ->
        match Doc.find_by_start doc 14 with
        | Some node ->
          Test_util.check_string "xml" "<c><b>x</b></c>"
            (Blas_xml.Printer.compact (Doc.subtree node))
        | None -> Alcotest.fail "expected a node" );
    ( "subtree concatenates direct text ahead of children",
      fun () ->
        let d = Doc.of_tree (Blas_xml.Dom.parse "<a>x<b/>y</a>") in
        Test_util.check_string "xml" "<a>xy<b/></a>"
          (Blas_xml.Printer.compact (Doc.subtree d.Doc.root)) );
  ]

let doc_positions_agree_with_dlabel tree =
  let doc = Doc.of_tree tree in
  let labels = Blas_label.Dlabel.label_tree tree in
  let doc_by_start =
    List.map (fun (n : Doc.node) -> (n.start, (n.fin, n.level, n.source_path))) doc.Doc.all
  in
  List.for_all
    (fun ((l : Blas_label.Dlabel.t), path, _) ->
      match List.assoc_opt l.start doc_by_start with
      | Some (fin, level, spath) -> fin = l.fin && level = l.level && spath = path
      | None -> false)
    labels

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) parser_unit_tests
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) naive_unit_tests
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) doc_unit_tests
  @ [
      Test_util.qtest "pretty/parse round trip on random queries"
        (Test_util.query_gen ~wildcards:true ()) (fun q ->
          let s = Pretty.to_string q in
          Pretty.to_string (parse s) = s);
      Test_util.qtest "Doc positions agree with Dlabel.label_tree"
        Test_util.doc_gen doc_positions_agree_with_dlabel;
      (* [run --explain] prints [source_path] as the answer's context. *)
      Test_util.qtest "source path is the containing nodes' tags"
        Test_util.doc_gen (fun tree ->
          let doc = Doc.of_tree tree in
          List.for_all
            (fun (n : Doc.node) ->
              let chain =
                List.filter_map
                  (fun (a : Doc.node) ->
                    if a.start <= n.start && n.fin <= a.fin then Some a.tag else None)
                  doc.Doc.all
              in
              chain = n.source_path)
            doc.Doc.all);
      Test_util.qtest "naive eval output is sorted and unique"
        (QCheck2.Gen.pair Test_util.doc_gen (Test_util.query_gen ()))
        (fun (tree, q) ->
          let starts = Naive_eval.starts (Doc.of_tree tree) q in
          List.sort_uniq Stdlib.compare starts = starts);
    ]
