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
      the columns their plan reads), and promotes at most
      {!max_promoted_per_row} words per visited row to the major heap
      (no query builds a major-heap array of fresh tuples: one longer
      than 256 pointers promotes every tuple it holds);
    - a v2 [Database.create] of base-scale Shakespeare allocates at
      most {!max_create_words_per_row} minor words per SP/SD row it
      loads (each page priced once, clustered rows never re-sorted),
      and an index build's statistics collection at most
      {!max_collect_words_per_node} per node (collected once, with no
      intermediate list of the nodes).
    These counts are deterministic for a given build, so these gates
    cannot flap. *)

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

(* The allocation gate's bounds: minor words per visited row, and
   words promoted to the major heap per visited row.  The answer list
   alone is 3 words an answer. *)
let max_words_per_row = 25.
let max_promoted_per_row = 4.

(* Minor words a warm Auto2 run of [qs] allocates, the words it
   promotes, and the rows it visits.  The first run warms the pool; the
   second is counted, between two minor collections so that the
   promoted words are exactly its own. *)
let run_words storage qs =
  let q = Blas.query qs in
  let run () = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 q in
  ignore (run ());
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let w0 = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. w0 in
  Gc.minor ();
  (words, (Gc.quick_stat ()).Gc.promoted_words -. p0, r.Blas.visited)

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
                let words, promoted, visited = run_words storage qs in
                let per_row = words /. float_of_int (max 1 visited) in
                let promoted_per_row = promoted /. float_of_int (max 1 visited) in
                gate
                  (Printf.sprintf "%s: %.1f minor words per visited row <= %.0f"
                     name per_row max_words_per_row)
                  (per_row <= max_words_per_row);
                gate
                  (Printf.sprintf "%s: %.2f promoted words per visited row <= %.0f"
                     name promoted_per_row max_promoted_per_row)
                  (promoted_per_row <= max_promoted_per_row);
                [
                  name;
                  string_of_int visited;
                  Printf.sprintf "%.0f" words;
                  Printf.sprintf "%.1f" per_row;
                  Printf.sprintf "%.2f" promoted_per_row;
                ])
              [ ("QS1", Bench_queries.qs1); ("QS3", Bench_queries.qs3) ]
          in
          Bench_util.print_table
            ~title:"allocation (warm Auto2 run, base-scale Shakespeare, v2)"
            {
              Bench_util.header =
                [
                  "query"; "visited"; "minor words"; "words/row";
                  "promoted words/row";
                ];
              rows;
            }))

(* The setup count gates' bounds: minor words a v2 [Database.create]
   allocates per SP/SD row it loads, [Stats.collect] per node, and an
   index build from a parsed tree per node.  See [setup_gate] for why
   these values. *)
let max_create_words_per_row = 34.
let max_collect_words_per_node = 0.6
let max_index_words_per_node = 100.

(* Minor words [f ()] allocates, counted between two minor
   collections. *)
let minor_words f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let words = Gc.minor_words () -. w0 in
  Gc.minor ();
  words

(* Setup allocation on base-scale Shakespeare: a v2 bulk load prices
   each page once and sorts nothing (the rows come clustered); the
   index build collects statistics once, straight from the label
   columns (the words a build with statistics allocates beyond one
   without); and the whole build replays the tree's events into the
   columns and takes both tables' rows from them, with no labeled
   document model on the way.  The counts are deterministic for a given
   build. *)
let setup_gate () =
  let tree = Datasets.shakespeare_base () in
  let storage = Blas.Storage.of_tree tree in
  let rows =
    Blas_rel.Table.cardinality storage.Blas.Storage.sp
    + Blas_rel.Table.cardinality storage.Blas.Storage.sd
  in
  let path = Filename.temp_file "blas_bench_setup" ".blasdb" in
  let create_words =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; path ^ ".wal" ])
      (fun () ->
        minor_words (fun () -> Blas.Database.create ~codec:Codec.V2 ~path storage))
  in
  let nodes = Blas.Storage.node_count storage in
  let build collect_stats =
    minor_words (fun () -> Blas.Storage.of_tree ~collect_stats tree)
  in
  let collect_words = build true -. build false in
  let index_words = minor_words (fun () -> Blas.index_of_tree tree) in
  let per_row = create_words /. float_of_int rows in
  let per_node = collect_words /. float_of_int nodes in
  let index_per_node = index_words /. float_of_int nodes in
  gate
    (Printf.sprintf "v2 Database.create: %.2f minor words per row <= %.0f" per_row
       max_create_words_per_row)
    (per_row <= max_create_words_per_row);
  gate
    (Printf.sprintf "Stats.collect: %.3f minor words per node <= %.1f" per_node
       max_collect_words_per_node)
    (per_node <= max_collect_words_per_node);
  gate
    (Printf.sprintf "Blas.index_of_tree: %.1f minor words per node <= %.0f"
       index_per_node max_index_words_per_node)
    (index_per_node <= max_index_words_per_node);
  Bench_util.print_table
    ~title:"setup allocation (base-scale Shakespeare)"
    {
      Bench_util.header = [ "step"; "units"; "minor words"; "words/unit" ];
      rows =
        [
          [
            "v2 Database.create"; Printf.sprintf "%d rows" rows;
            Printf.sprintf "%.0f" create_words; Printf.sprintf "%.2f" per_row;
          ];
          [
            "Stats.collect"; Printf.sprintf "%d nodes" nodes;
            Printf.sprintf "%.0f" collect_words; Printf.sprintf "%.3f" per_node;
          ];
          [
            "Blas.index_of_tree"; Printf.sprintf "%d nodes" nodes;
            Printf.sprintf "%.0f" index_words; Printf.sprintf "%.1f" index_per_node;
          ];
        ];
    }

let run () =
  Bench_util.heading "Page codecs: v1 row-major vs v2 compact columnar";
  alloc_gate ();
  setup_gate ();
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
