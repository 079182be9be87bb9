(** An analytics workload over XMark-like auction data: the benchmark
    query skeletons of Section 5.3.3 plus the recursive-schema queries
    QA1-QA3, run on the holistic twig join engine with the three
    translators the paper compares there.

    This is the "recursive DTD" stress case: description lists nest
    (parlist/listitem), so Unfold's schema expansion and the descendant
    axis behave differently than on tree-shaped data.

    Run with: [dune exec examples/auction_analytics.exe] *)

let queries =
  [
    ("QA1", "//category/description/parlist/listitem");
    ("QA2", "/site/regions//item/description");
    ("QA3", "/site/regions/asia/item[shipping]/description");
    ("Q1", "/site/people/person/name");
    ("Q2", "/site/open_auctions/open_auction/bidder/increase");
    ("Q4", "/site/open_auctions/open_auction[bidder/personref]/reserve");
    ("Q5", "/site/closed_auctions/closed_auction/price");
    ("Q6", "/site/regions//item");
  ]

let () =
  let tree = Blas_datagen.Auction.generate ~scale:40 () in
  let storage = Blas.index_of_tree tree in
  Printf.printf "Auction site: %d nodes, recursion depth %d\n\n"
    (Blas.Storage.node_count storage)
    (Blas_xml.Dataguide.max_depth (Blas.Storage.guide storage));

  Printf.printf "%-4s %-55s %10s %10s %10s %8s\n" "id" "query" "D-labeling"
    "Split" "Push-up" "answers";
  List.iter
    (fun (id, qs) ->
      let query = Blas.query qs in
      let visited translator =
        (Blas.run storage ~engine:Blas.Twig ~translator query).Blas.visited
      in
      let answers =
        List.length (Blas.run storage ~engine:Blas.Twig ~translator:Blas.Pushup query).Blas.starts
      in
      Printf.printf "%-4s %-55s %10d %10d %10d %8d\n" id qs
        (visited Blas.D_labeling) (visited Blas.Split) (visited Blas.Pushup)
        answers)
    queries;

  (* The recursive schema in action: unfolding //listitem enumerates one
     simple path per nesting depth. *)
  print_endline "\nUnfold on the recursive axis //parlist//listitem:";
  let q = Blas.query "/site/regions//item/description//listitem" in
  let branches = Blas.decompose storage Blas.Unfold q in
  Printf.printf "  %d branches (one concrete simple path per nesting depth), such as:\n"
    (List.length branches);
  List.iteri
    (fun i branch ->
      if i < 3 then
        List.iter
          (fun (item : Blas.Suffix_query.item) ->
            Printf.printf "    %s\n"
              (Format.asprintf "%a" Blas.Suffix_query.pp_path item.path))
          branch.Blas.Suffix_query.items)
    branches;
  let unfolded = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Unfold q in
  let pushed = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q in
  Printf.printf
    "  Unfold: %d answers visiting %d tuples; Push-up: %d answers visiting %d\n"
    (List.length unfolded.Blas.starts)
    unfolded.visited
    (List.length pushed.Blas.starts)
    pushed.visited;
  assert (unfolded.Blas.starts = pushed.Blas.starts)
