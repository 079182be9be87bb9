(** One function per table/figure of the paper's evaluation (Section 5).
    Each prints the same rows/series the paper reports; EXPERIMENTS.md
    records paper-vs-measured values. *)

let translators = [ Blas.D_labeling; Blas.Split; Blas.Pushup; Blas.Unfold ]

let twig_translators = [ Blas.D_labeling; Blas.Split; Blas.Pushup ]

let name = Blas.translator_name

(* ------------------------------------------------------------------ *)

let fig10 () =
  Bench_util.heading "Figure 10: Query sets";
  Bench_util.print_table
    {
      Bench_util.header = [ "id"; "query" ];
      rows = List.map (fun (id, q) -> [ id; q ]) Bench_queries.all;
    };
  Bench_util.print_table ~title:"XMark benchmark skeletons (Section 5.3.3)"
    {
      Bench_util.header = [ "id"; "query" ];
      rows = List.map (fun (id, q) -> [ id; q ]) Bench_queries.benchmark;
    }

(* ------------------------------------------------------------------ *)

let fig11 () =
  Bench_util.heading
    "Figure 11: plans generated for QS3 by D-labeling, Split, Push-up, Unfold";
  let storage = Datasets.shakespeare_full () in
  let query = Blas.query Bench_queries.qs3 in
  List.iter
    (fun translator ->
      Printf.printf "\n--- %s ---\n" (name translator);
      (match Blas.sql_for storage translator query with
      | Some sql -> print_endline (Blas_rel.Sql_print.to_string sql)
      | None -> print_endline "(provably empty)");
      match Blas.plan_for storage translator query with
      | Some plan ->
        let profile = Blas_rel.Algebra.selection_profile plan in
        Printf.printf
          "D-joins: %d; selections: %d equality, %d range, %d scans\n"
          (Blas_rel.Algebra.count_djoins plan)
          profile.Blas_rel.Algebra.equality profile.range profile.scans
      | None -> ())
    translators

(* ------------------------------------------------------------------ *)

let fig12 () =
  Bench_util.heading "Figure 12: XML data sets";
  let row label tree =
    let s = Blas_xml.Doc_stats.of_tree tree in
    [
      label;
      Blas_xml.Doc_stats.size_human s.Blas_xml.Doc_stats.size;
      string_of_int s.nodes;
      string_of_int s.tags;
      string_of_int s.depth;
    ]
  in
  Bench_util.print_table
    {
      Bench_util.header = [ "data set"; "size"; "nodes"; "tags"; "depth" ];
      rows =
        [
          row "Shakespeare" (Datasets.shakespeare_tree ());
          row "Protein" (Datasets.protein_tree ());
          row "Auction" (Datasets.auction_tree ());
        ];
    };
  print_endline
    "(paper: Shakespeare 1.3MB/31975/19/7, Protein 3.5MB/113831/66/7, Auction \
     3.4MB/61890/77/12)"

(* ------------------------------------------------------------------ *)

let run_rdbms storage translator query =
  Bench_util.measure (fun () ->
      Blas.run storage ~engine:Blas.Rdbms ~translator query)

let run_twig storage translator query =
  Bench_util.measure (fun () ->
      Blas.run storage ~engine:Blas.Twig ~translator query)

let fig13_one label storage queries =
  let rows =
    List.map
      (fun (id, qs) ->
        let query = Blas.query qs in
        id
        :: List.map
             (fun translator ->
               let _, t = run_rdbms storage translator query in
               Bench_util.seconds t)
             translators)
      queries
  in
  Bench_util.print_table ~title:(Printf.sprintf "(%s) query time, seconds" label)
    {
      Bench_util.header = "query" :: List.map name translators;
      rows;
    }

let fig13 () =
  Bench_util.heading
    "Figure 13: RDBMS engine, query time per translator (paper Fig. 13 a-c)";
  fig13_one "a: Shakespeare" (Datasets.shakespeare_full ()) Bench_queries.shakespeare;
  fig13_one "b: Protein" (Datasets.protein_full ()) Bench_queries.protein;
  fig13_one "c: Auction" (Datasets.auction_full ()) Bench_queries.auction

(* ------------------------------------------------------------------ *)

(* Figures 14-18 run the holistic twig join engine with value
   predicates removed (Section 5.3.1) and compare D-labeling, Split and
   Push-up (the prototype does not union, so Unfold is excluded, as in
   the paper). *)

let twig_rows storage queries =
  List.map
    (fun (id, qs) ->
      let query = Blas.query qs in
      List.map
        (fun translator ->
          let report, t = run_twig storage translator query in
          (id, translator, report, t))
        twig_translators)
    queries

let print_twig_tables ~what rows_per_query =
  let time_rows =
    List.map
      (fun results ->
        match results with
        | (id, _, _, _) :: _ ->
          id :: List.map (fun (_, _, _, t) -> Bench_util.seconds t) results
        | [] -> [])
      rows_per_query
  in
  let visited_rows =
    List.map
      (fun results ->
        match results with
        | (id, _, _, _) :: _ ->
          id
          :: List.map
               (fun (_, _, (r : Blas.report), _) -> Bench_util.thousands r.visited)
               results
        | [] -> [])
      rows_per_query
  in
  Bench_util.print_table ~title:(Printf.sprintf "(a) %s: execution time, seconds" what)
    {
      Bench_util.header = "query" :: List.map name twig_translators;
      rows = time_rows;
    };
  Bench_util.print_table
    ~title:(Printf.sprintf "(b) %s: visited elements" what)
    {
      Bench_util.header = "query" :: List.map name twig_translators;
      rows = visited_rows;
    }

let fig14 () =
  Bench_util.heading
    "Figure 14: twig-join engine on all data sets repeated 20x (no value \
     predicates)";
  let rows =
    twig_rows (Datasets.auction_x20 ()) Bench_queries.auction_novalue
    @ twig_rows (Datasets.protein_x20 ()) Bench_queries.protein_novalue
    @ twig_rows (Datasets.shakespeare_x20 ()) Bench_queries.shakespeare_novalue
  in
  print_twig_tables ~what:"all data sets x20" rows

let fig15 () =
  Bench_util.heading
    "Figure 15: benchmark queries on the large Auction data (twig engine)";
  let rows = twig_rows (Datasets.auction_x20 ()) Bench_queries.benchmark in
  print_twig_tables ~what:"XMark skeletons, Auction x20" rows

(* ------------------------------------------------------------------ *)

let scalability ~fig ~query_id ~query_string () =
  Bench_util.heading
    (Printf.sprintf
       "Figure %d: scalability of %s on Auction replicated 10-60x (twig engine)"
       fig query_id);
  let query = Blas.query query_string in
  let header =
    "size"
    :: List.concat_map
         (fun tr -> [ name tr ^ " (s)"; name tr ^ " (visited)" ])
         twig_translators
  in
  let rows =
    List.map
      (fun factor ->
        let storage = Datasets.auction_at factor in
        let cells =
          List.concat_map
            (fun translator ->
              let report, t = run_twig storage translator query in
              [ Bench_util.seconds t; Bench_util.thousands report.Blas.visited ])
            twig_translators
        in
        Datasets.sweep_label factor :: cells)
      Datasets.sweep_factors
  in
  Bench_util.print_table { Bench_util.header = header; rows }

let fig16 = scalability ~fig:16 ~query_id:"QA1 (suffix path)" ~query_string:Bench_queries.qa1

let fig17 = scalability ~fig:17 ~query_id:"QA2 (path)" ~query_string:Bench_queries.qa2

let fig18 = scalability ~fig:18 ~query_id:"QA3 (twig)" ~query_string:Bench_queries.qa3

(* ------------------------------------------------------------------ *)

(* Index construction: parse -> label -> cluster -> write the pages.
   Not a paper figure, but a system-level sanity number a user wants. *)
let build () =
  Bench_util.heading "Index construction (parse + label + cluster + pages)";
  let rows =
    List.map
      (fun (label, tree) ->
        let xml = Blas_xml.Printer.compact tree in
        let storage, t = Bench_util.measure ~repetitions:3 (fun () -> Blas.index xml) in
        let nodes = Blas.Storage.node_count storage in
        [
          label;
          Blas_xml.Doc_stats.size_human (String.length xml);
          string_of_int nodes;
          Bench_util.seconds t;
          Printf.sprintf "%.0f" (float_of_int nodes /. t);
        ])
      [
        ("Shakespeare", Datasets.shakespeare_tree ());
        ("Protein", Datasets.protein_tree ());
        ("Auction", Datasets.auction_tree ());
      ]
  in
  Bench_util.print_table
    {
      Bench_util.header = [ "data set"; "XML"; "nodes"; "build (s)"; "nodes/s" ];
      rows;
    }

(* Storage footprint: the Conclusion claims "since we use 4 numbers in
   our labeling scheme to replace tag names, the space used to
   represent an XML document is comparable to the size of the original
   document".  Price the SP relation at 16 bytes per P-label (128 bits
   cover (n+1)^(h+1) on all three data sets), 4 bytes for each of
   start/end/level, and the text bytes, and compare with the XML. *)
let space () =
  Bench_util.heading
    "Storage footprint: SP relation vs original document (Conclusion claim)";
  let rows =
    List.map
      (fun (label, tree) ->
        let xml_bytes = Blas_xml.Printer.byte_size tree in
        let storage = Blas.index_of_tree tree in
        let sp_bytes =
          List.fold_left
            (fun acc (n : Blas_xpath.Doc.node) ->
              acc + 16 + (3 * 4)
              + (match n.data with Some d -> String.length d + 1 | None -> 1))
            0 (Blas.Storage.doc storage).Blas_xpath.Doc.all
        in
        [
          label;
          Blas_xml.Doc_stats.size_human xml_bytes;
          Blas_xml.Doc_stats.size_human sp_bytes;
          Printf.sprintf "%.2fx" (float_of_int sp_bytes /. float_of_int xml_bytes);
        ])
      [
        ("Shakespeare", Datasets.shakespeare_tree ());
        ("Protein", Datasets.protein_tree ());
        ("Auction", Datasets.auction_tree ());
      ]
  in
  Bench_util.print_table
    {
      Bench_util.header = [ "data set"; "XML bytes"; "SP bytes"; "ratio" ];
      rows;
    }

(* Cold-cache disk accesses: the paper's running cost argument is "the
   number of joins and disk accesses" (Section 1).  Each run flushes
   the buffer pool first, per the Section 5.1 cold-cache protocol, and
   reports the page reads (pool misses). *)
let disk () =
  Bench_util.heading
    "Disk accesses: cold-cache page reads per query (RDBMS engine)";
  let datasets =
    [
      ("Shakespeare", Datasets.shakespeare_full (), Bench_queries.shakespeare);
      ("Protein", Datasets.protein_full (), Bench_queries.protein);
      ("Auction", Datasets.auction_full (), Bench_queries.auction);
    ]
  in
  List.iter
    (fun (label, storage, queries) ->
      let rows =
        List.map
          (fun (id, qs) ->
            let query = Blas.query qs in
            id
            :: List.map
                 (fun translator ->
                   Blas.Storage.cold_cache storage;
                   let report = Blas.run storage ~engine:Blas.Rdbms ~translator query in
                   string_of_int report.Blas.page_reads)
                 translators)
          queries
      in
      Bench_util.print_table ~title:(label ^ ": page reads (cold cache)")
        { Bench_util.header = "query" :: List.map name translators; rows })
    datasets

let joins () =
  Bench_util.heading
    "Section 4.2: D-joins per translator (l-1 vs b+d vs b)";
  let storage_for id =
    match id.[1] with
    | 'S' -> Datasets.shakespeare_full ()
    | 'P' -> Datasets.protein_full ()
    | _ -> Datasets.auction_full ()
  in
  let rows =
    List.map
      (fun (id, qs) ->
        let query = Blas.query qs in
        let storage = storage_for id in
        let djoins translator =
          match Blas.plan_for storage translator query with
          | Some plan -> string_of_int (Blas_rel.Algebra.count_djoins plan)
          | None -> "0"
        in
        (* Unfold's bound is per union branch. *)
        let unfold_djoins =
          match Blas.decompose storage Blas.Unfold query with
          | [] -> "0"
          | branches ->
            string_of_int
              (List.fold_left
                 (fun acc b -> max acc (Blas.Suffix_query.djoin_count b))
                 0 branches)
        in
        let l = Blas_xpath.Ast.step_count query in
        let b = Blas_xpath.Ast.branch_edge_count query in
        let d = Blas_xpath.Ast.descendant_edge_count query in
        [
          id;
          string_of_int (l - 1);
          djoins Blas.D_labeling;
          Printf.sprintf "%d" (b + d);
          djoins Blas.Split;
          djoins Blas.Pushup;
          string_of_int b;
          unfold_djoins;
        ])
      Bench_queries.all
  in
  Bench_util.print_table
    {
      Bench_util.header =
        [
          "query"; "l-1"; "D-lab"; "b+d"; "Split"; "Push-up"; "b (bound)";
          "Unfold";
        ];
      rows;
    }
