(** Tests for the labeling schemes: D-labels (Definition 3.1 and the
    position-based implementation) and P-labels — the paper's
    construction (Definition 3.2, Algorithms 1 and 2, Proposition 3.2),
    kept here over {!Bignum} as the reference, and the native-int
    labels the DataGuide gives source paths in reversed-path order,
    checked against it. *)

let parse = Blas_xml.Dom.parse

(* The paper's Figure 1 fragment, used to check the worked example of
   Section 3.1: the first <classification> starts at position 7 and its
   level is 4. *)
let figure1 =
  "<ProteinDatabase><ProteinEntry><protein><name>cytochrome c \
   [validated]</name><classification><superfamily>cytochrome \
   c</superfamily></classification></protein></ProteinEntry></ProteinDatabase>"

let labels_of tree =
  List.map (fun (l, path, _) -> (path, l)) (Dlabel.label_tree tree)

let dlabel_unit_tests =
  [
    ( "paper's position example",
      fun () ->
        let labels = labels_of (parse figure1) in
        let classification =
          List.assoc
            [ "ProteinDatabase"; "ProteinEntry"; "protein"; "classification" ]
            labels
        in
        Test_util.check_int "start" 7 classification.Dlabel.start;
        Test_util.check_int "level" 4 classification.Dlabel.level );
    ( "root label",
      fun () ->
        let labels = labels_of (parse "<a><b>t</b></a>") in
        let root = List.assoc [ "a" ] labels in
        (* <a>=1 <b>=2 t=3 </b>=4 </a>=5 *)
        Test_util.check_int "start" 1 root.Dlabel.start;
        Test_util.check_int "end" 5 root.Dlabel.fin;
        Test_util.check_int "level" 1 root.Dlabel.level );
    ( "descendant and child predicates",
      fun () ->
        let labels = labels_of (parse "<a><b><c/></b><d/></a>") in
        let l p = List.assoc p labels in
        let a = l [ "a" ] and b = l [ "a"; "b" ] and c = l [ "a"; "b"; "c" ] in
        let d = l [ "a"; "d" ] in
        Test_util.check_bool "a anc c" true (Dlabel.is_descendant ~anc:a ~desc:c);
        Test_util.check_bool "a parent b" true (Dlabel.is_child ~parent:a ~child:b);
        Test_util.check_bool "a not parent c" false (Dlabel.is_child ~parent:a ~child:c);
        Test_util.check_bool "b,d disjoint" true (Dlabel.disjoint b d);
        Test_util.check_bool "c not anc a" false (Dlabel.is_descendant ~anc:c ~desc:a) );
    ( "make validates",
      fun () ->
        Alcotest.check_raises "start>end" (Invalid_argument "Dlabel.make: start > end")
          (fun () -> ignore (Dlabel.make ~start:5 ~fin:4 ~level:1)) );
  ]

(* ------------------------------------------------------------------ *)

let table_of_tags tags ~height = Tag_table.create ~tags ~height

let sp absolute tags = { Plabel.absolute; tags }

let interval table path =
  match Plabel.suffix_path_interval table path with
  | Some i -> i
  | None -> Alcotest.fail "expected an interval"

let plabel_unit_tests =
  [
    ( "figure 4 structure: // covers everything",
      fun () ->
        let table = table_of_tags [ "t1"; "t2"; "t3" ] ~height:3 in
        let whole = interval table (sp false []) in
        Test_util.check_string "lo" "0" (Bignum.to_string (Interval.lo whole));
        Test_util.check_string "hi"
          Bignum.(to_string (pred (Tag_table.m table)))
          (Bignum.to_string (Interval.hi whole)) );
    ( "figure 4 nesting: /t1/t2 inside //t1/t2 inside //t2",
      fun () ->
        let table = table_of_tags [ "t1"; "t2"; "t3" ] ~height:3 in
        let i_t2 = interval table (sp false [ "t2" ]) in
        let i_t1t2 = interval table (sp false [ "t1"; "t2" ]) in
        let i_abs = interval table (sp true [ "t1"; "t2" ]) in
        Test_util.check_bool "t1/t2 in t2" true
          (Interval.contains ~outer:i_t2 ~inner:i_t1t2);
        Test_util.check_bool "/t1/t2 in //t1/t2" true
          (Interval.contains ~outer:i_t1t2 ~inner:i_abs);
        Test_util.check_bool "not the other way" false
          (Interval.contains ~outer:i_abs ~inner:i_t1t2) );
    ( "sibling suffix paths do not intersect",
      fun () ->
        let table = table_of_tags [ "t1"; "t2"; "t3" ] ~height:3 in
        let a = interval table (sp false [ "t1"; "t2" ]) in
        let b = interval table (sp false [ "t3"; "t2" ]) in
        let c = interval table (sp false [ "t1" ]) in
        Test_util.check_bool "disjoint" true (Interval.disjoint a b);
        Test_util.check_bool "different leaf tag disjoint" true (Interval.disjoint a c) );
    ( "unknown tag yields no interval",
      fun () ->
        let table = table_of_tags [ "t1" ] ~height:2 in
        Test_util.check_bool "none" true
          (Plabel.suffix_path_interval table (sp false [ "nope" ]) = None) );
    ( "node label is the absolute interval's left endpoint",
      fun () ->
        let table = table_of_tags [ "a"; "b" ] ~height:2 in
        let i = interval table (sp true [ "a"; "b" ]) in
        Test_util.check_bool "eq" true
          (Bignum.equal (Plabel.node_label table [ "a"; "b" ]) (Interval.lo i)) );
    ( "suffix_contains",
      fun () ->
        let outer = sp false [ "b"; "c" ] in
        Test_util.check_bool "suffix" true
          (Plabel.suffix_contains ~outer ~inner:(sp true [ "a"; "b"; "c" ]));
        Test_util.check_bool "itself" true (Plabel.suffix_contains ~outer ~inner:outer);
        Test_util.check_bool "not suffix" false
          (Plabel.suffix_contains ~outer ~inner:(sp true [ "b"; "c"; "a" ]));
        Test_util.check_bool "absolute outer exact" true
          (Plabel.suffix_contains
             ~outer:(sp true [ "a"; "b" ])
             ~inner:(sp true [ "a"; "b" ]));
        Test_util.check_bool "absolute outer rejects longer" false
          (Plabel.suffix_contains
             ~outer:(sp true [ "b" ])
             ~inner:(sp true [ "a"; "b" ])) );
  ]

(* ------------------------------------------------------------------ *)
(* Properties over random documents                                   *)

module Gen = QCheck2.Gen

(* Random suffix path over the test alphabet. *)
let suffix_path_gen =
  let open Gen in
  let* absolute = bool in
  let* tags = list_size (int_range 1 4) Test_util.tag in
  (* Absolute paths must start at the fixed root to be satisfiable. *)
  return (if absolute then { Plabel.absolute; tags = "r" :: tags } else { Plabel.absolute; tags })

let doc_and_table =
  let open Gen in
  let* tree = Test_util.doc_gen in
  return (tree, Tag_table.of_tree tree)

(* Every suffix path worth asking of a document: the suffixes of its
   source paths, each extended by one tag at either end (absent tags
   included), absolute and relative, up to one step past the deepest
   path.  [tree_gen] documents have a random root tag that recurs below
   it, so some suffixes have source paths that are their own proper
   prefixes read leaf first. *)
let probe_paths guide =
  let module S = Set.Make (struct
    type t = string list

    let compare = compare
  end) in
  let rec suffixes = function [] -> [] | _ :: rest as p -> p :: suffixes rest in
  let present = List.concat_map suffixes (Blas_xml.Dataguide.all_paths guide) in
  let alphabet = "zz" :: Array.to_list Test_util.tags in
  let grown =
    List.concat_map
      (fun s -> List.concat_map (fun t -> [ t :: s; s @ [ t ] ]) alphabet)
      ([] :: present)
  in
  let depth = Blas_xml.Dataguide.max_depth guide in
  S.elements (S.of_list (present @ grown))
  |> List.filter (fun tags -> tags <> [] && List.length tags <= depth + 1)
  |> List.concat_map (fun tags ->
         [ { Plabel.absolute = true; tags }; { Plabel.absolute = false; tags } ])

let int_labels_agree tree =
  let table = Tag_table.of_tree tree in
  let guide = Blas_xml.Dataguide.of_tree tree in
  let nodes =
    List.map
      (fun (big, path, _) ->
        (big, Option.get (Blas_xml.Dataguide.label guide path)))
      (Plabel.label_tree table tree)
  in
  let selects q =
    let by_ref =
      match Plabel.suffix_path_interval table q with
      | None -> None
      | Some i -> Some (List.filter (fun (b, _) -> Interval.mem b i) nodes)
    in
    let by_int =
      match
        Blas_xml.Dataguide.suffix_interval guide ~absolute:q.Plabel.absolute
          ~tags:q.Plabel.tags
      with
      | None -> None
      | Some (lo, hi) -> Some (List.filter (fun (_, l) -> lo <= l && l <= hi) nodes)
    in
    let count = function None -> 0 | Some l -> List.length l in
    by_ref = by_int
    && count by_int
       = Blas_xml.Dataguide.suffix_count guide ~absolute:q.Plabel.absolute
           ~tags:q.Plabel.tags
  in
  (* One order: sorted by the paper's labels, the int labels never
     decrease, and two nodes share one label exactly when they share
     the other. *)
  let sorted = List.sort (fun (a, _) (b, _) -> Bignum.compare a b) nodes in
  let rec same_order = function
    | (b1, l1) :: ((b2, l2) :: _ as rest) ->
      l1 <= l2 && Bignum.equal b1 b2 = (l1 = l2) && same_order rest
    | _ -> true
  in
  same_order sorted && List.for_all selects (probe_paths guide)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) dlabel_unit_tests
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) plabel_unit_tests
  @ [
      Test_util.qtest "D-labels characterize ancestry" Test_util.doc_gen (fun tree ->
          let labeled = Dlabel.label_tree tree in
          (* For every pair: interval containment iff path-prefix
             ancestry.  Quadratic, so documents are small. *)
          List.for_all
            (fun (la, pa, _) ->
              List.for_all
                (fun (lb, pb, _) ->
                  let is_prefix =
                    List.length pa < List.length pb
                    &&
                    let rec go a b =
                      match a, b with
                      | [], _ -> true
                      | x :: a', y :: b' -> String.equal x y && go a' b'
                      | _ -> false
                    in
                    go pa pb
                  in
                  (* Path prefixes are necessary but not sufficient for
                     ancestry (siblings share path prefixes), so check
                     one direction only: ancestry implies prefix. *)
                  (not (Dlabel.is_descendant ~anc:la ~desc:lb)) || is_prefix)
                labeled)
            labeled);
      Test_util.qtest "Algorithm 2 agrees with Definition 3.3" Test_util.doc_gen
        (fun tree ->
          let table = Tag_table.of_tree tree in
          List.for_all
            (fun (p1, path, _) -> Bignum.equal p1 (Plabel.node_label table path))
            (Plabel.label_tree table tree));
      Test_util.qtest "Proposition 3.2: interval membership = suffix match"
        (Gen.pair doc_and_table suffix_path_gen)
        (fun ((tree, table), query) ->
          let nodes = Plabel.label_tree table tree in
          List.for_all
            (fun (p1, path, _) ->
              let by_interval =
                match Plabel.suffix_path_interval table query with
                | None -> false
                | Some i -> Interval.mem p1 i
              in
              let by_syntax =
                Plabel.suffix_contains ~outer:query
                  ~inner:{ Plabel.absolute = true; tags = path }
              in
              by_interval = by_syntax)
            nodes);
      Test_util.qtest "Definition 3.2: containment = suffix relation"
        (Gen.pair doc_and_table (Gen.pair suffix_path_gen suffix_path_gen))
        (fun ((_, table), (p, q)) ->
          match
            ( Plabel.suffix_path_interval table p,
              Plabel.suffix_path_interval table q )
          with
          | Some ip, Some iq ->
            let by_interval = Interval.contains ~outer:iq ~inner:ip in
            let by_syntax = Plabel.suffix_contains ~outer:q ~inner:p in
            by_interval = by_syntax
          | _ -> true);
      Test_util.qtest "Definition 3.2: non-containment = disjoint"
        (Gen.pair doc_and_table (Gen.pair suffix_path_gen suffix_path_gen))
        (fun ((_, table), (p, q)) ->
          match
            ( Plabel.suffix_path_interval table p,
              Plabel.suffix_path_interval table q )
          with
          | Some ip, Some iq ->
            let contained =
              Plabel.suffix_contains ~outer:q ~inner:p
              || Plabel.suffix_contains ~outer:p ~inner:q
            in
            contained = Interval.overlaps ip iq
          | _ -> true);
      Test_util.qtest ~count:150
        "int P-labels select and order nodes as the paper's" Test_util.tree_gen
        int_labels_agree;
      Test_util.qtest "node labels are unique per source path"
        Test_util.doc_gen (fun tree ->
          let table = Tag_table.of_tree tree in
          let labeled = Plabel.label_tree table tree in
          List.for_all
            (fun (p1, path, _) ->
              List.for_all
                (fun (p1', path', _) -> Bignum.equal p1 p1' = (path = path'))
                labeled)
            labeled);
    ]
