(** Multi-document federation with cost-based translation.

    Indexes the three evaluation corpora into one {!Blas.Collection},
    runs queries across all of them, and shows the adaptive optimizer
    (the Auto2 translator) picking a plan per document — every document
    carries its own tag inventory, schema and statistics, so the right
    translation differs per partition.

    Run with: [dune exec examples/federation.exe] *)

let () =
  let collection =
    Blas.Collection.of_documents
      [
        ("shakespeare", Blas_datagen.Shakespeare.generate ~plays:4 ());
        ("protein", Blas_datagen.Protein.generate ~entries:200 ());
        ("auction", Blas_datagen.Auction.generate ~scale:20 ());
      ]
  in
  Printf.printf "Federated collection: %d documents, %d nodes total\n\n"
    (Blas.Collection.document_count collection)
    (Blas.Collection.node_count collection);

  (* Cross-corpus queries: //author appears in both the protein data
     (reference authors) and the auction data (annotation authors);
     //title in Shakespeare and protein. *)
  List.iter
    (fun qs ->
      let q = Blas.query qs in
      let answers = Blas.Collection.answers collection ~engine:Blas.Rdbms ~translator:Blas.Auto2 q in
      let per_doc name =
        List.length
          (List.filter (fun (a : Blas.Collection.answer) -> a.doc = name) answers)
      in
      Printf.printf "%-28s -> %5d answers  (shakespeare %d, protein %d, auction %d)\n"
        qs (List.length answers) (per_doc "shakespeare") (per_doc "protein")
        (per_doc "auction"))
    [ "//author"; "//title"; "//name"; "//year" ];

  (* The optimizer at work: the statistics-priced pick per document. *)
  print_endline "\nAuto2 plan choice for //author, per document:";
  List.iter
    (fun name ->
      match Blas.Collection.storage collection name with
      | None -> ()
      | Some storage ->
        let c = Blas.Optimizer.choose storage (Blas.query "//author") in
        Printf.printf "  %-12s %s (est %.0f of %d candidates)\n" name
          (Blas.Optimizer.label c) c.Blas.Optimizer.ch_est_cost
          (List.length c.Blas.Optimizer.ch_candidates))
    (Blas.Collection.names collection);

  (* Disk accounting per partition, cold cache. *)
  print_endline "\nCold-cache disk accesses for //author (Auto2 translator):";
  List.iter
    (fun name ->
      match Blas.Collection.storage collection name with
      | None -> ()
      | Some storage ->
        Blas.Storage.cold_cache storage;
        let report =
          Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2
            (Blas.query "//author")
        in
        Printf.printf "  %-12s %4d tuples, %3d page reads\n" name report.Blas.visited
          report.page_reads)
    (Blas.Collection.names collection)
