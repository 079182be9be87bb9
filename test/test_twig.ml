(** Tests for the holistic twig join, checked against a naive
    tree-pattern matcher over the same streams. *)

open Blas_twig

let entry start fin level = { Entry.start; fin; level }

let mk ?(gap = Pattern.At_least 1) ?(output = false) label entries children =
  Pattern.make ~label ~entries ~gap ~children ~is_output:output

(* Naive evaluation of a pattern: output bindings by brute force. *)
let naive_run (root : Pattern.node) =
  let rec embeddings (p : Pattern.node) (e : Entry.t) =
    List.for_all
      (fun (c : Pattern.node) ->
        Array.exists
          (fun e' -> Pattern.gap_ok c.gap ~anc:e ~desc:e' && embeddings c e')
          c.entries)
      p.children
  in
  let rec collect (p : Pattern.node) above =
    let candidates =
      Array.to_list p.entries
      |> List.filter (fun e ->
             (match above with
             | None -> true
             | Some (anc, gap) -> Pattern.gap_ok gap ~anc ~desc:e)
             && embeddings p e)
    in
    if p.is_output then List.map (fun (e : Entry.t) -> e.start) candidates
    else
      List.concat_map
        (fun e ->
          List.concat_map (fun (c : Pattern.node) -> collect c (Some (e, c.gap))) p.children)
        candidates
  in
  (* The output node may be anywhere; walk the path from the root. *)
  let rec output_path (p : Pattern.node) =
    if p.is_output then Some []
    else
      List.find_map
        (fun c -> Option.map (fun path -> c :: path) (output_path c))
        p.children
  in
  ignore output_path;
  List.sort_uniq Stdlib.compare (collect root None)

(* Small handcrafted document:
   r(1,20,1) a(2,9,2) b(3,4,3) c(5,8,3) b(6,7,4) a(10,13,2) b(11,12,3) d(14,19,2) a(15,18,3) b(16,17,4) *)
let r_ = entry 1 20 1

let a1 = entry 2 9 2

let b1 = entry 3 4 3

let c1 = entry 5 8 3

let b2 = entry 6 7 4

let a2 = entry 10 13 2

let b3 = entry 11 12 3

let d1 = entry 14 19 2

let a3 = entry 15 18 3

let b4 = entry 16 17 4

let all_a = [ a1; a2; a3 ]

let all_b = [ b1; b2; b3; b4 ]

let unit_tests =
  [
    ( "descendant edge",
      fun () ->
        let p = mk "a" all_a [ mk ~output:true "b" all_b [] ] in
        let results, stats = Twig_stack.run p in
        Test_util.check_int_list "b under a" [ 3; 6; 11; 16 ] results;
        Test_util.check_int "visited" 7 stats.Twig_stack.visited );
    ( "child edge",
      fun () ->
        let p = mk "a" all_a [ mk ~gap:(Pattern.Exact 1) ~output:true "b" all_b [] ] in
        let results, _ = Twig_stack.run p in
        Test_util.check_int_list "b children of a" [ 3; 11; 16 ] results );
    ( "output on the ancestor side",
      fun () ->
        let p = mk ~output:true "a" all_a [ mk ~gap:(Pattern.Exact 2) "b" all_b [] ] in
        let results, _ = Twig_stack.run p in
        (* a nodes with a grandchild b: a1 (b2 at gap 2). *)
        Test_util.check_int_list "a with b grandchild" [ 2 ] results );
    ( "branching pattern",
      fun () ->
        let p =
          mk ~output:true "a" all_a
            [
              mk ~gap:(Pattern.Exact 1) "b" all_b [];
              mk ~gap:(Pattern.Exact 1) "c" [ c1 ] [];
            ]
        in
        let results, _ = Twig_stack.run p in
        Test_util.check_int_list "a with b and c children" [ 2 ] results );
    ( "empty stream yields no results",
      fun () ->
        let p = mk "a" all_a [ mk ~output:true "z" [] [] ] in
        let results, _ = Twig_stack.run p in
        Test_util.check_int_list "none" [] results );
    ( "min gap",
      fun () ->
        let p = mk "r" [ r_ ] [ mk ~gap:(Pattern.At_least 3) ~output:true "b" all_b [] ] in
        let results, _ = Twig_stack.run p in
        Test_util.check_int_list "b at least 3 below r" [ 6; 16 ] results );
    ( "pattern without output rejected",
      fun () ->
        let p = mk "a" all_a [] in
        match Twig_stack.run p with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument" );
  ]

(* ------------------------------------------------------------------ *)
(* Property: the twig join matches brute force on random patterns     *)

module Gen = QCheck2.Gen

(* Build streams from a random document's labels, one per tag. *)
let doc_streams tree =
  let labeled = Dlabel.label_tree tree in
  fun tag ->
    List.filter_map
      (fun ((l : Dlabel.t), path, _) ->
        match List.rev path with
        | leaf :: _ when String.equal leaf tag ->
          Some (entry l.start l.fin l.level)
        | _ -> None)
      labeled

let pattern_gen =
  let open Gen in
  let* tree = Test_util.doc_gen in
  let streams = doc_streams tree in
  let gap =
    oneof
      [
        return (Pattern.At_least 1);
        map (fun k -> Pattern.At_least k) (int_range 1 3);
        map (fun k -> Pattern.Exact k) (int_range 1 2);
      ]
  in
  let rec node depth ~output =
    let* tag = Test_util.tag in
    let* g = gap in
    let* n_children = if depth >= 2 then return 0 else int_range 0 2 in
    let* children =
      if output then
        (* The output stays on the leftmost spine for simplicity. *)
        if n_children = 0 then return []
        else
          let* first = node (depth + 1) ~output:true in
          let* rest = list_size (return (n_children - 1)) (node (depth + 1) ~output:false) in
          return (first :: rest)
      else list_size (return n_children) (node (depth + 1) ~output:false)
    in
    let is_output = output && children = [] in
    return (mk ~gap:g ~output:is_output tag (streams tag) children)
  in
  node 0 ~output:true

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ [
      Test_util.qtest ~count:300 "twig join matches brute force" pattern_gen
        (fun p ->
          let fast, _ = Twig_stack.run p in
          fast = naive_run p);
      (* Twig_stack is the classic getNext TwigStack: besides its answers,
         its statistics must be consistent — phase 1 pushes no more
         elements than the streams hold, and [results] counts the answers. *)
      Test_util.qtest ~count:300 "classic TwigStack matches brute force"
        pattern_gen (fun p ->
          let fast, stats = Twig_stack.run p in
          fast = naive_run p
          && stats.Twig_stack.results = List.length fast
          && stats.candidates <= stats.visited
          && stats.visited = Pattern.visited_elements p);
      (* PathStack: full embedding enumeration on linear patterns. *)
      Alcotest.test_case "PathStack enumerates embeddings" `Quick (fun () ->
          (* a(2,9) holds b1(3,4) and b2(6,7 via c); a3(15,18) holds b4. *)
          let p = mk "a" all_a [ mk ~output:true "b" all_b [] ] in
          let sols = Path_stack.solutions p in
          let as_pairs =
            List.sort compare
              (List.map
                 (fun (s : Path_stack.solution) ->
                   (s.(0).Entry.start, s.(1).Entry.start))
                 sols)
          in
          Test_util.check_bool "pairs" true
            (as_pairs = [ (2, 3); (2, 6); (10, 11); (15, 16) ]));
      Alcotest.test_case "PathStack rejects branching patterns" `Quick (fun () ->
          let p =
            mk ~output:true "a" all_a [ mk "b" all_b []; mk "c" [ c1 ] [] ]
          in
          match Path_stack.solutions p with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument");
      (let linear_gen =
         let open Gen in
         let* tree = Test_util.doc_gen in
         let streams = doc_streams tree in
         let gap =
           oneof
             [
               return (Pattern.At_least 1);
               map (fun k -> Pattern.Exact k) (int_range 1 2);
             ]
         in
         let* len = int_range 1 3 in
         let rec chain i =
           let* tag = Test_util.tag in
           let* g = gap in
           if i = len - 1 then
             return (mk ~gap:g ~output:true tag (streams tag) [])
           else
             let* rest = chain (i + 1) in
             return (mk ~gap:g tag (streams tag) [ rest ])
         in
         chain 0
       in
       Test_util.qtest ~count:300 "PathStack solutions match brute force"
         linear_gen (fun p ->
           let rec nodes (p : Pattern.node) =
             p :: (match p.children with [] -> [] | c :: _ -> nodes c)
           in
           let chain = nodes p in
           (* Brute force: all tuples satisfying consecutive gaps. *)
           let rec brute prefix = function
             | [] -> [ List.rev prefix ]
             | (n : Pattern.node) :: rest ->
               Array.to_list n.entries
               |> List.concat_map (fun e ->
                      match prefix with
                      | [] -> brute [ e ] rest
                      | anc :: _ ->
                        if Pattern.gap_ok n.gap ~anc ~desc:e then
                          brute (e :: prefix) rest
                        else [])
           in
           let expected =
             match chain with
             | first :: rest ->
               Array.to_list first.Pattern.entries
               |> List.concat_map (fun e -> brute [ e ] rest)
               |> List.map (List.map (fun (e : Entry.t) -> e.start))
               |> List.sort compare
             | [] -> []
           in
           let got =
             Path_stack.solutions p
             |> List.map (fun (s : Path_stack.solution) ->
                    Array.to_list (Array.map (fun (e : Entry.t) -> e.Entry.start) s))
             |> List.sort compare
           in
           got = expected));
    ]
