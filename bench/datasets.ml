(** The benchmark data sets, built once and shared by the figures.

    Two scales are used (see DESIGN.md's substitution table):

    - {b full} — the generators calibrated to the paper's Figure 12
      (Shakespeare 1.3 MB / Protein 3.5 MB / Auction 3.4 MB analogues);
      used for Figures 11-13, where the paper runs the original files.
    - {b base} — smaller documents used for the replication experiments
      (Figures 14-18), where the paper replicates its files 10-60x.
      Replicating the full-scale documents 60x would need several
      million nodes in memory; replicating a smaller base preserves
      every relative comparison because both the visited-element counts
      and the join costs scale linearly in the replication factor. *)

let storage_of tree = Blas.index_of_tree tree

(* The raw full-scale trees, memoized so every section that needs one
   (Figure 12, the space and build tables, the index builders below)
   shares a single construction instead of regenerating the data set. *)
let shakespeare_tree =
  Bench_util.memo (fun () -> Blas_datagen.Shakespeare.default ())

let protein_tree = Bench_util.memo (fun () -> Blas_datagen.Protein.default ())

let auction_tree = Bench_util.memo (fun () -> Blas_datagen.Auction.default ())

let shakespeare_full = Bench_util.memo (fun () -> storage_of (shakespeare_tree ()))

let protein_full = Bench_util.memo (fun () -> storage_of (protein_tree ()))

let auction_full = Bench_util.memo (fun () -> storage_of (auction_tree ()))

(* Replication bases. *)
let shakespeare_base = Bench_util.memo (fun () -> Blas_datagen.Shakespeare.generate ~plays:2 ())

let protein_base = Bench_util.memo (fun () -> Blas_datagen.Protein.generate ~entries:160 ())

let auction_base = Bench_util.memo (fun () -> Blas_datagen.Auction.generate ~scale:16 ())

let replicated base factor = storage_of (Blas_xml.Replicate.by_factor factor (base ()))

let shakespeare_x20 = Bench_util.memo (fun () -> replicated shakespeare_base 20)

let protein_x20 = Bench_util.memo (fun () -> replicated protein_base 20)

let auction_x20 = Bench_util.memo (fun () -> replicated auction_base 20)

(* ------------------------------------------------------------------ *)
(* Prebuilt database files.

   The server benchmarks run against [.blasdb] files.  Bulk-loading one
   is the expensive part (index construction), so each data set is
   indexed into a read-only template exactly once per bench process;
   sections that need a live database take a cheap private file copy
   and open that read-write.  The serve and shards sections share the
   same templates. *)

let db_template tag base =
  Bench_util.memo (fun () ->
      let path = Filename.temp_file ("blas_bench_tpl_" ^ tag) ".blasdb" in
      Blas.Database.create ~page_size:4096 ~path (storage_of (base ()));
      at_exit (fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ path; path ^ ".wal" ]);
      path)

let shakespeare_db = db_template "shakespeare" shakespeare_base

let auction_db = db_template "auction" auction_base

(* Heavier variants for the shards sweep: with base-sized documents the
   per-query work is so small that router and syscall overhead drown
   the shard parallelism being measured. *)
let shakespeare_x4_db =
  db_template "shakespeare_x4" (fun () ->
      Blas_xml.Replicate.by_factor 4 (shakespeare_base ()))

let auction_x4_db =
  db_template "auction_x4" (fun () ->
      Blas_xml.Replicate.by_factor 4 (auction_base ()))

let copy_file src dst =
  let ic = open_in_bin src in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let buf = Bytes.create 65536 in
          let rec go () =
            let n = input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              output oc buf 0 n;
              go ()
            end
          in
          go ()))

(** A private read-write copy of a prebuilt template, its buffer pool
    in [stripes] stripes (default 1): the storage and the database path
    (caller removes [path] and [path ^ ".wal"]). *)
let db_copy ?stripes template_path =
  let path = Filename.temp_file "blas_bench_db" ".blasdb" in
  copy_file template_path path;
  let storage =
    Blas.Database.open_ ~cache_pages:512 ?stripes ~mode:Blas.Database.Rw
      ~path ()
  in
  (storage, path)

(** The Figure 16-18 sweep: auction base replicated 10-60x.  Rebuilt on
    demand (not memoized) so at most one large index lives at a time. *)
let sweep_factors = [ 10; 20; 30; 40; 50; 60 ]

let auction_at factor = replicated auction_base factor

(** X-axis labels for the sweep, in the paper's style: the byte size of
    the replicated document. *)
let sweep_label factor =
  let tree = Blas_xml.Replicate.by_factor factor (auction_base ()) in
  Blas_xml.Doc_stats.size_human (Blas_xml.Printer.byte_size tree)
