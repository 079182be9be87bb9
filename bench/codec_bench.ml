(** bench codec: the v1-vs-v2 page codec matrix.

    For each fig10 corpus a database file is built under both codecs and
    the same Figure 10 queries run cold off each file.  The table
    reports the layout economics (entries/page, bytes/entry, compression
    ratio) next to the measured effect (cold page misses, wall-clock).

    With [--check] (the CI gate, sharing {!Overhead.check_mode}) the run
    enforces the PR's acceptance criteria:

    - v2 packs at least 1.5x more SP entries per data page than v1;
    - v2 answers the cold fig10 queries with no more page misses;
    - answers are byte-identical between the codecs across all three
      translators and both engines;
    - [Database.create] under v2, summed over the corpora, takes at
      most 4x as long as under v1 (the bulk load stays linear);
    - a warm [Blas.run] (Auto2) of QS1 and of QS3 on the base-scale
      Shakespeare v2 file allocates at most {!max_words_per_row} minor
      words per visited row (late materialization: accesses decode only
      the columns their plan reads).  Minor-word counts are
      deterministic for a given build, so this gate cannot flap. *)

module Codec = Blas_rel.Codec
module Pool = Blas_rel.Buffer_pool

let fmt_ms s = Printf.sprintf "%.2f" (s *. 1000.)
let misses storage = Pool.misses (Blas.Storage.pool storage)

let corpora =
  [
    ("shakespeare", Datasets.shakespeare_base, Bench_queries.shakespeare);
    ("protein", Datasets.protein_base, Bench_queries.protein);
    ("auction", Datasets.auction_base, Bench_queries.auction);
  ]

(* One cold fig10 pass (Push-up, rdbms engine — the measured row);
   returns (page misses, seconds).  The translator is pinned: a
   statistics-driven pick could differ between the v1 and v2 files and
   void the cold-miss comparison. *)
let cold_pass storage queries =
  Blas.Storage.cold_cache storage;
  let m0 = misses storage in
  let _, dt =
    Bench_util.time_once (fun () ->
        List.iter
          (fun (_, qs) ->
            ignore
              (Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup
                 (Blas.query qs)))
          queries)
  in
  (misses storage - m0, dt)

(* Answer starts for every (translator, engine) combination — the
   determinism matrix the gate compares across codecs. *)
let answer_matrix storage queries =
  List.concat_map
    (fun (qname, qs) ->
      let q = Blas.query qs in
      List.concat_map
        (fun translator ->
          List.map
            (fun engine ->
              ( Printf.sprintf "%s/%s/%s" qname
                  (Blas.translator_name translator)
                  (Blas.engine_name engine),
                (Blas.run storage ~engine ~translator q).Blas.starts ))
            [ Blas.Rdbms; Blas.Twig ])
        [ Blas.Split; Blas.Pushup; Blas.Unfold ])
    queries

type side = {
  sd_create_s : float;  (** [Database.create] wall-clock *)
  sd_entries_per_page : float;
  sd_bytes_per_entry : float;
  sd_ratio : float;  (** payload bytes / v1-equivalent bytes *)
  sd_file_pages : int;
  sd_cold_misses : int;
  sd_cold_s : float;
  sd_answers : (string * int list) list;
}

let measure_side ~codec tree queries =
  let path = Filename.temp_file "blas_bench_codec" ".blasdb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      let storage = Blas.Storage.of_tree tree in
      let (), create_s =
        Bench_util.time_once (fun () ->
            Blas.Database.create ~page_size:2048 ~codec ~path storage)
      in
      let storage =
        Blas.Database.open_ ~cache_pages:64 ~mode:Blas.Database.Ro ~path ()
      in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close storage)
        (fun () ->
          let s =
            match Blas.Storage.disk storage with
            | Some d -> d.Blas.Storage.dk_stats ()
            | None -> assert false
          in
          let sp =
            match
              List.find_opt
                (fun ts -> ts.Blas.Storage.ts_name = "sp")
                s.Blas.Storage.dstat_tables
            with
            | Some ts -> ts
            | None -> assert false
          in
          let fdiv num den = float_of_int num /. float_of_int (max 1 den) in
          let cold_misses, cold_s = cold_pass storage queries in
          {
            sd_create_s = create_s;
            sd_entries_per_page =
              fdiv sp.Blas.Storage.ts_entries sp.ts_data_pages;
            sd_bytes_per_entry = fdiv sp.ts_payload_bytes sp.ts_entries;
            sd_ratio = fdiv sp.ts_payload_bytes sp.ts_v1_bytes;
            sd_file_pages = s.Blas.Storage.dstat_page_count;
            sd_cold_misses = cold_misses;
            sd_cold_s = cold_s;
            sd_answers = answer_matrix storage queries;
          }))

let gate name ok =
  if not ok then begin
    Printf.printf "GATE FAILED: %s\n%!" name;
    if !Overhead.check_mode then Overhead.failed := true
  end

(* The allocation gate's bound: minor words per visited row. *)
let max_words_per_row = 25.

(* Minor words a warm Auto2 run of [qs] allocates, and the rows it
   visits.  The first run warms the pool; the second is counted. *)
let run_words storage qs =
  let q = Blas.query qs in
  let run () = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 q in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let r = run () in
  (Gc.minor_words () -. w0, r.Blas.visited)

let alloc_gate () =
  let path = Filename.temp_file "blas_bench_alloc" ".blasdb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      Blas.Database.create ~codec:Codec.V2 ~path
        (Blas.Storage.of_tree (Datasets.shakespeare_base ()));
      let storage =
        Blas.Database.open_ ~cache_pages:512 ~mode:Blas.Database.Ro ~path ()
      in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close storage)
        (fun () ->
          let rows =
            List.map
              (fun (name, qs) ->
                let words, visited = run_words storage qs in
                let per_row = words /. float_of_int (max 1 visited) in
                gate
                  (Printf.sprintf "%s: %.1f minor words per visited row <= %.0f"
                     name per_row max_words_per_row)
                  (per_row <= max_words_per_row);
                [
                  name;
                  string_of_int visited;
                  Printf.sprintf "%.0f" words;
                  Printf.sprintf "%.1f" per_row;
                ])
              [ ("QS1", Bench_queries.qs1); ("QS3", Bench_queries.qs3) ]
          in
          Bench_util.print_table
            ~title:"allocation (warm Auto2 run, base-scale Shakespeare, v2)"
            {
              Bench_util.header =
                [ "query"; "visited"; "minor words"; "words/row" ];
              rows;
            }))

let run () =
  Bench_util.heading "Page codecs: v1 row-major vs v2 compact columnar";
  alloc_gate ();
  let create_s = ref (0., 0.) in
  let rows =
    List.concat_map
      (fun (name, tree, queries) ->
        let tree = tree () in
        let v1 = measure_side ~codec:Codec.V1 tree queries in
        let v2 = measure_side ~codec:Codec.V2 tree queries in
        let s1, s2 = !create_s in
        create_s := (s1 +. v1.sd_create_s, s2 +. v2.sd_create_s);
        gate
          (Printf.sprintf "%s: v2 entries/page >= 1.5x v1 (%.1f vs %.1f)" name
             v2.sd_entries_per_page v1.sd_entries_per_page)
          (v2.sd_entries_per_page >= 1.5 *. v1.sd_entries_per_page);
        gate
          (Printf.sprintf "%s: v2 cold page misses <= v1 (%d vs %d)" name
             v2.sd_cold_misses v1.sd_cold_misses)
          (v2.sd_cold_misses <= v1.sd_cold_misses);
        gate
          (Printf.sprintf
             "%s: identical answers across translators x engines"
             name)
          (v1.sd_answers = v2.sd_answers);
        List.map
          (fun (codec, side) ->
            [
              name;
              codec;
              Printf.sprintf "%.1f" side.sd_entries_per_page;
              Printf.sprintf "%.1f" side.sd_bytes_per_entry;
              Printf.sprintf "%.2f" side.sd_ratio;
              string_of_int side.sd_file_pages;
              string_of_int side.sd_cold_misses;
              fmt_ms side.sd_cold_s;
              Printf.sprintf "%.3f" side.sd_create_s;
            ])
          [ ("v1", v1); ("v2", v2) ])
      corpora
  in
  let s1, s2 = !create_s in
  gate
    (Printf.sprintf "summed v2 create <= 4x v1 (%.3f s vs %.3f s)" s2 s1)
    (s2 <= 4. *. s1);
  Bench_util.print_table ~title:"codec matrix (fig10 corpora, 2048-byte pages)"
    {
      Bench_util.header =
        [
          "corpus"; "codec"; "sp entries/page"; "sp bytes/entry";
          "vs v1 bytes"; "file pages"; "cold fig10 misses"; "cold ms";
          "create_s";
        ];
      rows;
    }
