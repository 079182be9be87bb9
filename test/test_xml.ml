(** Tests for the XML substrate: SAX parser, DOM, printer, escaping,
    DataGuide, statistics and replication. *)

open Blas_xml

let parse = Dom.parse

let unit_tests =
  [
    ( "basic element",
      fun () ->
        let t = parse "<a><b>hi</b></a>" in
        Test_util.check_string "print" "<a><b>hi</b></a>" (Printer.compact t) );
    ( "attributes become @-children",
      fun () ->
        let t = parse "<a id=\"1\" name='n'><b/></a>" in
        match t with
        | Types.Element ("a", [ Types.Element ("@id", [ Types.Content "1" ]);
                                Types.Element ("@name", [ Types.Content "n" ]);
                                Types.Element ("b", []) ]) -> ()
        | _ -> Alcotest.fail "unexpected shape" );
    ( "attribute round trip",
      fun () ->
        let s = "<a id=\"1\"><b x=\"y\">t</b></a>" in
        Test_util.check_string "round trip" s (Printer.compact (parse s)) );
    ( "entities decode",
      fun () ->
        let t = parse "<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>" in
        Test_util.check_string "text" "<&>\"'AB" (Types.text_content t) );
    ( "entities re-escape on print",
      fun () ->
        let t = parse "<a>&lt;tag&gt;</a>" in
        Test_util.check_string "print" "<a>&lt;tag&gt;</a>" (Printer.compact t) );
    ( "comments and PIs are skipped",
      fun () ->
        let t = parse "<?xml version=\"1.0\"?><!-- hi --><a><!--x--><b/></a>" in
        Test_util.check_string "print" "<a><b/></a>" (Printer.compact t) );
    ( "CDATA is text",
      fun () ->
        let t = parse "<a><![CDATA[<raw>&stuff]]></a>" in
        Test_util.check_string "text" "<raw>&stuff" (Types.text_content t) );
    ( "DOCTYPE with internal subset is skipped",
      fun () ->
        let t = parse "<!DOCTYPE a [<!ELEMENT a (b)>]><a><b/></a>" in
        Test_util.check_string "print" "<a><b/></a>" (Printer.compact t) );
    ( "whitespace-only text dropped by default",
      fun () ->
        let t = parse "<a>\n  <b/>\n</a>" in
        Test_util.check_string "print" "<a><b/></a>" (Printer.compact t) );
    ( "whitespace kept on request",
      fun () ->
        let t = Dom.parse ~keep_whitespace:true "<a> <b/></a>" in
        Test_util.check_string "text" " " (Types.text_content t) );
    ( "self-closing tag",
      fun () ->
        let t = parse "<a/>" in
        Test_util.check_int "count" 1 (Types.element_count t) );
    ( "mismatched tags rejected",
      fun () ->
        match parse "<a><b></a></b>" with
        | exception Types.Parse_error (_, _) -> ()
        | _ -> Alcotest.fail "expected a parse error" );
    ( "unclosed element rejected",
      fun () ->
        match parse "<a><b>" with
        | exception Types.Parse_error (_, _) -> ()
        | _ -> Alcotest.fail "expected a parse error" );
    ( "unknown entity rejected",
      fun () ->
        match parse "<a>&nope;</a>" with
        | exception Types.Parse_error (_, _) -> ()
        | _ -> Alcotest.fail "expected a parse error" );
    ( "parse error carries position",
      fun () ->
        match parse "<a>\n<b>&bad;</b></a>" with
        | exception Types.Parse_error (pos, _) ->
          Test_util.check_int "line" 2 pos.Types.line
        | _ -> Alcotest.fail "expected a parse error" );
    ( "element_count counts attributes",
      fun () ->
        let t = parse "<a id=\"1\"><b/></a>" in
        Test_util.check_int "count" 3 (Types.element_count t) );
    ( "depth",
      fun () ->
        let t = parse "<a><b><c/></b><d/></a>" in
        Test_util.check_int "depth" 3 (Types.depth t) );
    ( "dataguide paths",
      fun () ->
        let t = parse "<a><b><c/></b><b><d/></b></a>" in
        let guide = Dataguide.of_tree t in
        Test_util.check_bool "a/b/c" true (Dataguide.mem_path guide [ "a"; "b"; "c" ]);
        Test_util.check_bool "a/b/d" true (Dataguide.mem_path guide [ "a"; "b"; "d" ]);
        Test_util.check_bool "a/c" false (Dataguide.mem_path guide [ "a"; "c" ]);
        Test_util.check_int "paths" 4 (List.length (Dataguide.all_paths guide));
        Test_util.check_int "depth" 3 (Dataguide.max_depth guide);
        Test_util.check_bool "tags" true
          (Dataguide.distinct_tags guide = [ "a"; "b"; "c"; "d" ]) );
    ( "doc stats",
      fun () ->
        let t = parse "<a><b>hi</b><b/></a>" in
        let stats = Doc_stats.of_tree t in
        Test_util.check_int "nodes" 3 stats.Doc_stats.nodes;
        Test_util.check_int "tags" 2 stats.Doc_stats.tags;
        Test_util.check_int "depth" 2 stats.Doc_stats.depth;
        Test_util.check_int "size" (String.length "<a><b>hi</b><b/></a>")
          stats.Doc_stats.size );
    ( "size_human",
      fun () ->
        Test_util.check_string "mb" "34.8M" (Doc_stats.size_human 34_800_000);
        Test_util.check_string "kb" "1.3K" (Doc_stats.size_human 1_300);
        Test_util.check_string "b" "12B" (Doc_stats.size_human 12) );
    ( "replicate preserves shape and scales nodes",
      fun () ->
        let t = parse "<a><b><c/></b></a>" in
        let r = Replicate.by_factor 3 t in
        Test_util.check_int "nodes" 7 (Types.element_count r);
        Test_util.check_int "depth" 3 (Types.depth r);
        let g = Dataguide.of_tree r and g0 = Dataguide.of_tree t in
        Test_util.check_bool "same paths" true
          (Dataguide.all_paths g = Dataguide.all_paths g0) );
    ( "replicate factor 1 is identity",
      fun () ->
        let t = parse "<a><b/></a>" in
        Test_util.check_bool "equal" true (Types.equal t (Replicate.by_factor 1 t)) );
    ( "replicate rejects factor 0",
      fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Replicate.by_factor: factor must be >= 1") (fun () ->
            ignore (Replicate.by_factor 0 (parse "<a/>"))) );
    ( "select_children / descendants",
      fun () ->
        let t = parse "<a><b/><c><b/></c></a>" in
        Test_util.check_int "children b" 1 (List.length (Dom.select_children "b" t));
        Test_util.check_int "descendants" 3 (List.length (Dom.descendants t)) );
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
  @ [
      Test_util.qtest "print/parse round trip" Test_util.doc_gen (fun t ->
          Blas_xml.Types.equal t (parse (Printer.compact t)));
      Test_util.qtest "pretty print parses to the same element structure"
        Test_util.doc_gen (fun t ->
          (* Pretty printing adds indentation around mixed content, so
             compare the element skeleton and trimmed text. *)
          let rec skeleton = function
            | Types.Element (tag, kids) ->
              Some (Types.Element (tag, List.filter_map skeleton kids))
            | Types.Content s ->
              let s = String.trim s in
              if s = "" then None else Some (Types.Content s)
          in
          skeleton t = skeleton (parse (Printer.pretty t)));
      Test_util.qtest "events round trip through Dom.iter_events"
        Test_util.doc_gen (fun t ->
          let events = ref [] in
          Dom.iter_events t ~on_event:(fun e -> events := e :: !events);
          Blas_xml.Types.equal t (Dom.of_events (List.rev !events)));
      Test_util.qtest "byte_size equals printed length" Test_util.doc_gen (fun t ->
          Printer.byte_size t = String.length (Printer.compact t));
      Test_util.qtest "dataguide contains every source path" Test_util.doc_gen
        (fun t ->
          let guide = Dataguide.of_tree t in
          Dom.fold_elements
            (fun acc path _ -> acc && Dataguide.mem_path guide path)
            true t);
      Test_util.qtest "dataguide suffix counts match an element scan"
        Test_util.doc_gen (fun t ->
          let guide = Dataguide.of_tree t in
          let paths = Dom.fold_elements (fun acc path _ -> path :: acc) [] t in
          let rec ends_in suffix path =
            path = suffix
            || match path with [] -> false | _ :: rest -> ends_in suffix rest
          in
          let scan ~absolute tags =
            List.length
              (List.filter
                 (fun p -> if absolute then p = tags else ends_in tags p)
                 paths)
          in
          let rec suffixes = function
            | [] -> [ [] ]
            | _ :: rest as p -> p :: suffixes rest
          in
          List.for_all
            (fun p ->
              List.for_all
                (fun tags ->
                  Dataguide.suffix_count guide ~absolute:true ~tags
                  = scan ~absolute:true tags
                  && Dataguide.suffix_count guide ~absolute:false ~tags
                     = scan ~absolute:false tags)
                (suffixes p))
            paths
          && Dataguide.path_counts
               (Dataguide.of_path_counts (Dataguide.path_counts guide))
             = Dataguide.path_counts guide);
    ]
