(** Multi-document federation with cost-based translation.

    Indexes the three evaluation corpora into one named list of
    storages (the shape {!Blas.Loader.load_dir} returns for a directory
    of documents), runs queries across all of them, and shows the
    adaptive optimizer (the Auto2 translator) picking a plan per
    document — every document carries its own tag inventory, schema and
    statistics, so the right translation differs per document.

    Run with: [dune exec examples/federation.exe] *)

let () =
  let docs =
    List.map
      (fun (name, tree) -> (name, Blas.Storage.of_tree tree))
      [
        ("shakespeare", Blas_datagen.Shakespeare.generate ~plays:4 ());
        ("protein", Blas_datagen.Protein.generate ~entries:200 ());
        ("auction", Blas_datagen.Auction.generate ~scale:20 ());
      ]
  in
  Printf.printf "Federated collection: %d documents, %d nodes total\n\n"
    (List.length docs)
    (List.fold_left (fun acc (_, s) -> acc + Blas.Storage.node_count s) 0 docs);

  (* Cross-corpus queries: //author appears in both the protein data
     (reference authors) and the auction data (annotation authors);
     //title in Shakespeare and protein. *)
  List.iter
    (fun qs ->
      let q = Blas.query qs in
      let per_doc =
        List.map
          (fun (name, storage) ->
            let report = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 q in
            (name, List.length report.Blas.starts))
          docs
      in
      Printf.printf "%-28s -> %5d answers  (shakespeare %d, protein %d, auction %d)\n"
        qs
        (List.fold_left (fun acc (_, n) -> acc + n) 0 per_doc)
        (List.assoc "shakespeare" per_doc) (List.assoc "protein" per_doc)
        (List.assoc "auction" per_doc))
    [ "//author"; "//title"; "//name"; "//year" ];

  (* The optimizer at work: the statistics-priced pick per document. *)
  print_endline "\nAuto2 plan choice for //author, per document:";
  List.iter
    (fun (name, storage) ->
      let c = Blas.Optimizer.choose storage (Blas.query "//author") in
      Printf.printf "  %-12s %s (est %.0f of %d candidates)\n" name
        (Blas.Optimizer.label c) c.Blas.Optimizer.ch_est_cost
        (List.length c.Blas.Optimizer.ch_candidates))
    docs;

  (* Disk accounting per document, cold cache. *)
  print_endline "\nCold-cache disk accesses for //author (Auto2 translator):";
  List.iter
    (fun (name, storage) ->
      Blas.Storage.cold_cache storage;
      let report =
        Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2
          (Blas.query "//author")
      in
      Printf.printf "  %-12s %4d tuples, %3d page reads\n" name report.Blas.visited
        report.page_reads)
    docs
