(** bench disk: the persistence smoke.

    Builds a database file from the Shakespeare corpus once, then
    measures what the on-disk engine is for: a cold open (page cache
    empty, document tree unbuilt) answering the Figure 10 queries
    straight off the file, the same queries warm, and a
    larger-than-cache scan that forces the pool to cycle every page
    through a cache an order of magnitude smaller than the file.  The
    per-query cold-cache page-read tables (Figure 13's protocol, now
    measured I/O rather than a model) print first via {!Figures.disk}.
    With [--json] every table lands in BENCH_results.json. *)

module Pool = Blas_rel.Buffer_pool

let fmt_ms s = Printf.sprintf "%.2f" (s *. 1000.)

let misses storage = Pool.misses (Blas.Storage.pool storage)

(* A fixed paper translator, so every file and codec runs the same
   plans. *)
let fig10 storage =
  List.iter
    (fun (_, qs) ->
      ignore
        (Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup
           (Blas.query qs)))
    Bench_queries.shakespeare

(* A corpus an order of magnitude past the page cache, under both
   codecs: the replicated Shakespeare file dwarfs a 32-page pool, so
   the cold fig10 pass and the full scan cycle every page through real
   eviction.  The same cache holds proportionally more of the v2 file,
   which is the codec's disk story in one table. *)
let eviction_matrix () =
  Bench_util.heading "Larger-than-cache corpus, both codecs (32-page pool)";
  let tree = Blas_xml.Replicate.by_factor 8 (Datasets.shakespeare_base ()) in
  let storage_mem = Blas.Storage.of_tree tree in
  let rows =
    List.map
      (fun codec ->
        let path = Filename.temp_file "blas_bench_evict" ".blasdb" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ path; path ^ ".wal" ])
          (fun () ->
            Blas.Database.create ~page_size:2048 ~codec ~path storage_mem;
            let file_bytes = (Unix.stat path).st_size in
            let storage =
              Blas.Database.open_ ~cache_pages:32 ~mode:Blas.Database.Ro ~path
                ()
            in
            Fun.protect
              ~finally:(fun () -> Blas.Storage.close storage)
              (fun () ->
                let m0 = misses storage in
                let _, t_cold =
                  Bench_util.time_once (fun () -> fig10 storage)
                in
                let cold = misses storage - m0 in
                let m1 = misses storage in
                let _, t_scan =
                  Bench_util.time_once (fun () ->
                      ignore
                        (Blas_rel.Table.scan storage.Blas.Storage.sd
                           (Blas_rel.Counters.create ())))
                in
                let scan = misses storage - m1 in
                [
                  Blas_rel.Codec.format_name codec;
                  string_of_int (file_bytes / 1024);
                  string_of_int cold;
                  fmt_ms t_cold;
                  string_of_int scan;
                  fmt_ms t_scan;
                ])))
      [ Blas_rel.Codec.V1; Blas_rel.Codec.V2 ]
  in
  Bench_util.print_table
    ~title:"eviction matrix (shakespeare x8, 32-page cache of 2048)"
    {
      Bench_util.header =
        [
          "codec"; "file KiB"; "cold fig10 misses"; "cold ms"; "scan misses";
          "scan ms";
        ];
      rows;
    }

let run () =
  Figures.disk ();
  Bench_util.heading
    "Disk engine: cold vs warm open, larger-than-cache scan";
  let path = Filename.temp_file "blas_bench_disk" ".blasdb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      let tree = Datasets.shakespeare_base () in
      let _, t_build =
        Bench_util.time_once (fun () ->
            Blas.Database.create ~page_size:2048 ~path
              (Blas.Storage.of_tree tree))
      in
      let file_bytes = (Unix.stat path).st_size in
      (* Cold: open with a cache well under the file size and answer the
         Figure 10 queries off the file; warm: the same queries again on
         the now-populated cache. *)
      let storage, t_open =
        Bench_util.time_once (fun () ->
            Blas.Database.open_ ~cache_pages:64 ~mode:Blas.Database.Ro ~path ())
      in
      let m0 = misses storage in
      let _, t_cold = Bench_util.time_once (fun () -> fig10 storage) in
      let cold_misses = misses storage - m0 in
      let m1 = misses storage in
      let _, t_warm = Bench_util.time_once (fun () -> fig10 storage) in
      let warm_misses = misses storage - m1 in
      let s =
        match Blas.Storage.disk storage with
        | Some d -> d.Blas.Storage.dk_stats ()
        | None -> assert false
      in
      Blas.Storage.close storage;
      (* Larger-than-cache: a full-document scan through a 16-page
         cache, so nearly every page is a miss with write-free
         eviction. *)
      let scan, t_scan_open =
        Bench_util.time_once (fun () ->
            Blas.Database.open_ ~cache_pages:16 ~mode:Blas.Database.Ro ~path ())
      in
      let m2 = misses scan in
      let _, t_scan =
        Bench_util.time_once (fun () ->
            ignore
              (Blas_rel.Table.scan scan.Blas.Storage.sd
                 (Blas_rel.Counters.create ())))
      in
      let scan_misses = misses scan - m2 in
      Blas.Storage.close scan;
      Bench_util.print_table ~title:"persistence smoke (Shakespeare)"
        {
          Bench_util.header =
            [ "step"; "ms"; "page misses"; "cache pages"; "file pages" ];
          rows =
            [
              [ "bulk load + create"; fmt_ms t_build; "-"; "-";
                string_of_int s.Blas.Storage.dstat_page_count ];
              [ "cold open"; fmt_ms t_open; "-"; "64"; "-" ];
              [ "cold fig10 queries"; fmt_ms t_cold;
                string_of_int cold_misses; "64"; "-" ];
              [ "warm fig10 queries"; fmt_ms t_warm;
                string_of_int warm_misses; "64"; "-" ];
              [ "open (16-page cache)"; fmt_ms t_scan_open; "-"; "16"; "-" ];
              [ "larger-than-cache scan"; fmt_ms t_scan;
                string_of_int scan_misses; "16";
                string_of_int s.Blas.Storage.dstat_page_count ];
            ];
        };
      Printf.printf "file: %d bytes, cache 64 pages = %d bytes\n%!" file_bytes
        (64 * 2048));
  eviction_matrix ()
