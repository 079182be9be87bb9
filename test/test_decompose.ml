(** Tests for the query translators: decomposition shapes (Split,
    Push-up), schema expansion (wildcards, Unfold), the Section 4.2 join
    bounds, and the generated SQL. *)

module SQ = Blas.Suffix_query

let parse = Blas_xpath.Parser.parse

let split q = Blas.Decompose.decompose Blas.Decompose.Split (parse q)

let pushup q = Blas.Decompose.decompose Blas.Decompose.Pushup (parse q)

let path_string (i : SQ.item) =
  Format.asprintf "%a" Blas_label.Plabel.pp_suffix_path i.path

let item_paths d = List.map path_string d.SQ.items

(* The paper's worked example (Figures 3, 7-9). *)
let q =
  "/proteinDatabase/proteinEntry[protein//superfamily = \"cytochrome \
   c\"]/reference/refinfo[//author = \"Evans, M.J.\"][year = \"2001\"]/title"

let qs3 = "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public place.\"]//LINE"

let unit_tests =
  [
    ( "suffix path query stays whole",
      fun () ->
        let d = split "/a/b/c" in
        Test_util.check_int "one item" 1 (SQ.item_count d);
        Test_util.check_int "no joins" 0 (SQ.djoin_count d);
        Test_util.check_bool "absolute" true
          (item_paths d = [ "/a/b/c" ]) );
    ( "leading descendant stays whole",
      fun () ->
        let d = split "//a/b" in
        Test_util.check_bool "relative" true (item_paths d = [ "//a/b" ]) );
    ( "split cuts descendant edges",
      fun () ->
        let d = split "/a/b//c/d" in
        Test_util.check_bool "items" true (item_paths d = [ "/a/b"; "//c/d" ]);
        Test_util.check_bool "join gap" true (d.SQ.joins = [ { SQ.anc = 1; desc = 2; gap = SQ.At_least 2 } ]);
        Test_util.check_int "output" 2 d.SQ.output );
    ( "split cuts branches with exact gaps",
      fun () ->
        let d = split "/a[b/c]/d" in
        Test_util.check_bool "items" true (item_paths d = [ "/a"; "//b/c"; "//d" ]);
        Test_util.check_bool "joins" true
          (List.sort compare d.SQ.joins
          = [ { SQ.anc = 1; desc = 2; gap = SQ.Exact 2 };
              { SQ.anc = 1; desc = 3; gap = SQ.Exact 1 } ]);
        Test_util.check_int "output" 3 d.SQ.output );
    ( "push-up keeps the branching point's path",
      fun () ->
        let d = pushup "/a[b/c]/d" in
        Test_util.check_bool "items" true (item_paths d = [ "/a"; "/a/b/c"; "/a/d" ]) );
    ( "push-up does not push across descendant cuts",
      fun () ->
        let d = pushup "/a//b[c]/d" in
        Test_util.check_bool "items" true
          (item_paths d = [ "/a"; "//b"; "//b/c"; "//b/d" ]) );
    ( "the paper's query Q: split",
      fun () ->
        let d = split q in
        (* Q has 9 query nodes; Section 1 counts 8 joins for D-labeling.
           Split/Push-up need b + d = 4 + 2 = 6. *)
        Test_util.check_int "items" 7 (SQ.item_count d);
        Test_util.check_int "joins" 6 (SQ.djoin_count d) );
    ( "the paper's query Q: push-up paths (Example 4.2)",
      fun () ->
        let d = pushup q in
        Test_util.check_bool "Q''2 present" true
          (List.mem "/proteinDatabase/proteinEntry/protein" (item_paths d));
        Test_util.check_bool "Q''3 style prefix" true
          (List.mem "/proteinDatabase/proteinEntry/reference/refinfo" (item_paths d)
           || List.mem "/proteinDatabase/proteinEntry/reference" (item_paths d)) );
    ( "QS3: split vs push-up selection kinds (Section 5.2.2)",
      fun () ->
        let sd = split qs3 and pd = pushup qs3 in
        let absolute d =
          List.length (List.filter (fun (i : SQ.item) -> i.path.absolute) d.SQ.items)
        in
        (* Split: /PLAYS/PLAY/ACT/SCENE absolute + //TITLE + //LINE:
           one equality, two ranges.  Push-up: TITLE gets the prefix:
           two equalities, one range. *)
        Test_util.check_int "split items" 3 (SQ.item_count sd);
        Test_util.check_int "split equalities" 1 (absolute sd);
        Test_util.check_int "push-up equalities" 2 (absolute pd);
        Test_util.check_int "split joins" 2 (SQ.djoin_count sd);
        Test_util.check_int "push-up joins" 2 (SQ.djoin_count pd) );
    ( "value lands on the item leaf",
      fun () ->
        let d = split "/a/b = \"v\"" in
        match d.SQ.items with
        | [ item ] -> Test_util.check_bool "value" true (item.value = Some (Blas_xpath.Ast.Equals "v"))
        | _ -> Alcotest.fail "expected one item" );
    ( "output on an inner branching point",
      fun () ->
        let d = split "/a/b[c]" in
        Test_util.check_int "output is b's item" 1 d.SQ.output;
        Test_util.check_bool "items" true (item_paths d = [ "/a/b"; "//c" ]) );
    ( "root item well defined",
      fun () ->
        let d = split q in
        Test_util.check_int "root" 1 (SQ.root_item d).SQ.id );
    ( "wildcards rejected without schema",
      fun () ->
        match Blas.Decompose.decompose Blas.Decompose.Split (parse "/a/*/b") with
        | exception Blas.Decompose.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Unsupported" );
  ]

(* ------------------------------------------------------------------ *)
(* Schema expansion                                                   *)

let guide_of xml = Blas_xml.Dataguide.of_tree (Blas_xml.Dom.parse xml)

let expansion_tests =
  [
    ( "wildcard expansion enumerates concrete tags",
      fun () ->
        let guide = guide_of "<r><a><x/></a><b><x/></b></r>" in
        let qs = Blas.Decompose.expand_wildcards guide (parse "/r/*/x") in
        Test_util.check_int "two expansions" 2 (List.length qs);
        let printed = List.map Blas_xpath.Pretty.to_string qs in
        Test_util.check_bool "both paths" true
          (List.mem "/r/a/x" printed && List.mem "/r/b/x" printed) );
    ( "full expansion removes descendant axes",
      fun () ->
        let guide = guide_of "<r><a><x/></a><b><c><x/></c></b></r>" in
        let qs = Blas.Decompose.expand ~all:true guide (parse "/r//x") in
        let printed = List.sort compare (List.map Blas_xpath.Pretty.to_string qs) in
        Test_util.check_bool "paths" true (printed = [ "/r/a/x"; "/r/b/c/x" ]) );
    ( "expansion of an unmatched path is empty",
      fun () ->
        let guide = guide_of "<r><a/></r>" in
        Test_util.check_int "empty" 0
          (List.length (Blas.Decompose.expand ~all:true guide (parse "/r/zzz"))) );
    ( "unfold on a recursive shape enumerates every depth",
      fun () ->
        let guide = guide_of "<r><l><l><l/></l></l></r>" in
        let qs = Blas.Decompose.expand ~all:true guide (parse "/r//l") in
        Test_util.check_int "three depths" 3 (List.length qs) );
    ( "unfold decompositions are all-equality (Section 4.2: b joins)",
      fun () ->
        let storage = Blas.index "<r><a><b><t/></b></a><c><b><t/></b></c></r>" in
        let branches =
          Blas.decompose storage Blas.Unfold (parse "/r//b[t]")
        in
        List.iter
          (fun d ->
            List.iter
              (fun (i : SQ.item) ->
                Test_util.check_bool "absolute" true i.path.absolute)
              d.SQ.items;
            List.iter
              (fun (j : SQ.join) ->
                Test_util.check_bool "exact" true
                  (match j.gap with SQ.Exact _ -> true | SQ.At_least _ -> false))
              d.SQ.joins)
          branches;
        Test_util.check_int "branches" 2 (List.length branches) );
    ( "unfold stops at the expansion bound",
      fun () ->
        (* Under k distinct parent tags, [//x] has k expansions and
           [/r[//x]//x] has k * k. *)
        let guide k =
          guide_of
            ("<r>"
            ^ String.concat ""
                (List.init k (fun i -> Printf.sprintf "<t%d><x/></t%d>" i i))
            ^ "</r>")
        in
        let bound = Blas.Decompose.expansion_bound in
        let branches g q =
          Option.map List.length (Blas.Decompose.unfold_opt g (parse q))
        in
        let check_branches what expected got =
          Alcotest.(check (option int)) what expected got
        in
        check_branches "sum at the bound" (Some bound)
          (branches (guide bound) "/r//x");
        check_branches "sum past the bound" None
          (branches (guide (bound + 1)) "/r//x");
        check_branches "product 8 x 8" (Some 64)
          (branches (guide 8) "/r[//x]//x");
        check_branches "product 9 x 9" None (branches (guide 9) "/r[//x]//x");
        check_branches "product with an empty factor" (Some 0)
          (branches (guide (bound + 1)) "/r[//zzz]//x");
        (* Past the bound, Unfold is the Push-up translation. *)
        let g = guide (bound + 1) in
        Test_util.check_bool "falls back to Push-up" true
          (Blas.Decompose.unfold g (parse "/r//x")
          = Blas.Decompose.translate Blas.Decompose.Pushup ~guide:g (parse "/r//x"))
      );
  ]

(* ------------------------------------------------------------------ *)
(* Section 4.2 bounds as properties                                   *)

let bound_props =
  [
    Test_util.qtest "Split joins = b + d <= l - 1" (Test_util.query_gen ())
      (fun q ->
        let d = Blas.Decompose.decompose Blas.Decompose.Split q in
        let b = Blas_xpath.Ast.branch_edge_count q in
        let dd = Blas_xpath.Ast.descendant_edge_count q in
        let l = Blas_xpath.Ast.step_count q in
        let joins = SQ.djoin_count d in
        joins <= b + dd && joins <= max 0 (l - 1));
    Test_util.qtest "Push-up produces the same join structure as Split"
      (Test_util.query_gen ()) (fun q ->
        let s = Blas.Decompose.decompose Blas.Decompose.Split q in
        let p = Blas.Decompose.decompose Blas.Decompose.Pushup q in
        SQ.djoin_count s = SQ.djoin_count p
        && List.map (fun (j : SQ.join) -> (j.anc, j.desc, j.gap)) s.SQ.joins
           = List.map (fun (j : SQ.join) -> (j.anc, j.desc, j.gap)) p.SQ.joins);
    Test_util.qtest "Push-up items are at least as specific as Split's"
      (Test_util.query_gen ()) (fun q ->
        let s = Blas.Decompose.decompose Blas.Decompose.Split q in
        let p = Blas.Decompose.decompose Blas.Decompose.Pushup q in
        List.for_all2
          (fun (si : SQ.item) (pi : SQ.item) ->
            List.length pi.path.tags >= List.length si.path.tags)
          s.SQ.items p.SQ.items);
  ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) expansion_tests
  @ bound_props
