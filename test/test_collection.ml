(** Tests for multi-document collections. *)

module C = Blas.Collection

let parse = Blas_xml.Dom.parse

let docs =
  [
    ("plays", parse "<r><a><b>x</b></a></r>");
    ("proteins", parse "<r><a/><c><b>y</b></c></r>");
    ("empty-ish", parse "<r/>");
  ]

let collection = lazy (C.of_documents docs)

let unit_tests =
  [
    ( "construction",
      fun () ->
        let c = Lazy.force collection in
        Test_util.check_int "documents" 3 (C.document_count c);
        Test_util.check_bool "names" true (C.names c = [ "plays"; "proteins"; "empty-ish" ]);
        Test_util.check_int "nodes" (3 + 4 + 1) (C.node_count c);
        Test_util.check_bool "storage lookup" true (C.storage c "plays" <> None);
        Test_util.check_bool "missing" true (C.storage c "nope" = None) );
    ( "duplicate names rejected",
      fun () ->
        match C.add (Lazy.force collection) ~name:"plays" (parse "<r/>") with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument" );
    ( "answers are tagged with their document",
      fun () ->
        let c = Lazy.force collection in
        let q = Blas.query "//b" in
        let answers = C.answers c ~engine:Blas.Rdbms ~translator:Blas.Pushup q in
        Test_util.check_bool "docs and starts" true
          (List.map (fun (a : C.answer) -> a.doc) answers = [ "plays"; "proteins" ]) );
    ( "agrees with the per-document oracle on every translator/engine",
      fun () ->
        let c = Lazy.force collection in
        List.iter
          (fun qs ->
            let q = Blas.query qs in
            let expected = C.oracle c q in
            List.iter
              (fun translator ->
                List.iter
                  (fun engine ->
                    Test_util.check_bool
                      (Printf.sprintf "%s %s/%s" qs
                         (Blas.translator_name translator)
                         (Blas.engine_name engine))
                      true
                      (C.answers c ~engine ~translator q = expected))
                  [ Blas.Rdbms; Blas.Twig ])
              [ Blas.D_labeling; Blas.Split; Blas.Pushup; Blas.Unfold; Blas.Auto2 ])
          [ "//b"; "/r/a"; "//c[b]"; "/r/a/b = \"x\"" ] );
    ( "visited sums across documents",
      fun () ->
        let c = Lazy.force collection in
        let q = Blas.query "//b" in
        let total = C.visited c ~engine:Blas.Rdbms ~translator:Blas.Pushup q in
        let per_doc =
          List.fold_left
            (fun acc (_, (r : Blas.report)) -> acc + r.Blas.visited)
            0
            (C.run c ~engine:Blas.Rdbms ~translator:Blas.Pushup q)
        in
        Test_util.check_int "sum" per_doc total );
    ( "empty collection",
      fun () ->
        let q = Blas.query "//b" in
        Test_util.check_bool "no answers" true
          (C.answers C.empty ~engine:Blas.Rdbms ~translator:Blas.Pushup q = []) );
  ]

let suite = List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
