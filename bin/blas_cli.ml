(** The [blas] command-line interface: generate data sets, inspect
    documents, translate XPath queries with any of the translators, and
    run them on either engine.

    {v
      blas generate auction --scale 20 -o auction.xml
      blas stats auction.xml
      blas translate -q '//item[shipping]/description' auction.xml
      blas plan -q '//item/description' --translator pushup auction.xml
      blas run -q '//item/description' --engine twig --verify auction.xml
    v} *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Logging setup, shared by every command.

   Level resolution: --quiet silences everything, -v forces Debug
   everywhere; otherwise $BLAS_LOG applies ("debug", or a per-source
   list like "blas_rel=debug,blas=info" — sources: blas, blas_rel,
   blas_twig, blas_update); the default is Warning. *)

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Ok (Some Logs.Debug)
  | "info" -> Ok (Some Logs.Info)
  | "warning" | "warn" -> Ok (Some Logs.Warning)
  | "error" -> Ok (Some Logs.Error)
  | "app" -> Ok (Some Logs.App)
  | "off" | "none" | "quiet" -> Ok None
  | _ -> Error s

let apply_blas_log spec =
  List.iter
    (fun entry ->
      let entry = String.trim entry in
      if entry <> "" then
        match String.index_opt entry '=' with
        | None -> (
          match level_of_string entry with
          | Ok level -> Logs.set_level ~all:true level
          | Error s -> Printf.eprintf "BLAS_LOG: unknown level %S\n%!" s)
        | Some i -> (
          let name = String.sub entry 0 i in
          let level = String.sub entry (i + 1) (String.length entry - i - 1) in
          match level_of_string level with
          | Error s -> Printf.eprintf "BLAS_LOG: unknown level %S\n%!" s
          | Ok level -> (
            match
              List.find_opt
                (fun src -> String.equal (Logs.Src.name src) name)
                (Logs.Src.list ())
            with
            | Some src -> Logs.Src.set_level src level
            | None -> Printf.eprintf "BLAS_LOG: unknown log source %S\n%!" name)))
    (String.split_on_char ',' spec)

let setup_logs ~quiet ~verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level ~all:true (Some Logs.Warning);
  (match Sys.getenv_opt "BLAS_LOG" with
  | Some spec -> apply_blas_log spec
  | None -> ());
  if verbose then Logs.set_level ~all:true (Some Logs.Debug);
  if quiet then Logs.set_level ~all:true None

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging everywhere (overrides $(b,BLAS_LOG)).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Silence all logging (overrides $(b,-v) and $(b,BLAS_LOG)).")

(* Evaluates first in every command, so library logging is configured
   before any work runs. *)
let logs_term =
  Term.(const (fun quiet verbose -> setup_logs ~quiet ~verbose) $ quiet_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let input_arg =
  let doc = "XML input file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let query_arg =
  let doc = "XPath query (the paper's subset: /, //, [..], =, *)." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"XPATH" ~doc)

(* Parses with [enum] over the shared name table (so unique prefixes
   still work) but prints through [Proto], so [Auto2] shows as "auto2"
   rather than its [auto] alias. *)
let translator_conv =
  Arg.conv
    ( Arg.conv_parser (Arg.enum Blas_server.Proto.translator_names),
      fun ppf t -> Format.pp_print_string ppf (Blas_server.Proto.translator_to_string t) )

(* [default] varies by command: [run] and the network [query] use the
   adaptive optimizer (auto2); translation-inspection commands keep the
   paper's push-up so their output stays a pure function of the query. *)
let translator_arg_with ~default =
  let doc =
    Printf.sprintf "Query translator: %s."
      (String.concat ", " (List.map fst Blas_server.Proto.translator_names))
  in
  Arg.(
    value
    & opt translator_conv default
    & info [ "translator"; "t" ] ~doc)

let translator_arg = translator_arg_with ~default:Blas.Pushup

let stats_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "stats-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the optimizer's statistics reservoir (default: a fixed \
           constant, so statistics are reproducible run to run).")

let apply_stats_seed seed =
  Option.iter Blas.Optimizer.Stats.set_default_seed seed

let engine_arg =
  let doc = "Query engine: rdbms or twig." in
  Arg.(
    value
    & opt (enum Blas_server.Proto.engine_names) Blas.Rdbms
    & info [ "engine"; "e" ] ~doc)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains the server's request workers are spread over (default \
           1).  Requests run in parallel; each query runs sequentially.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the semantic query cache for this invocation (the CLI \
           enables it by default; the library default is off).")

let parse_query s =
  try Ok (Blas.query s) with
  | Blas_xpath.Parser.Error msg -> Error (Printf.sprintf "query error: %s" msg)

let parse_query_union s =
  try Ok (Blas.query_union s) with
  | Blas_xpath.Parser.Error msg -> Error (Printf.sprintf "query error: %s" msg)

(* XML files and databases (magic "BLASDB1") both load — through the
   same memoized sniff-and-parse helper the server's document
   collection uses. *)
let load_storage ?rw ?cache_pages path = Blas.Loader.load ?rw ?cache_pages path

let pages_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pages" ] ~docv:"N"
        ~doc:
          "Page-cache capacity, in pages, when the input is a database file \
           (default 256).  Ignored for XML and saved-index inputs.")


(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate () dataset scale seed output =
  let tree =
    match dataset with
    | `Shakespeare -> Blas_datagen.Shakespeare.generate ?seed ~plays:(max 1 scale) ()
    | `Protein -> Blas_datagen.Protein.generate ?seed ~entries:(max 1 (scale * 80)) ()
    | `Auction -> Blas_datagen.Auction.generate ?seed ~scale:(max 1 (scale * 8)) ()
  in
  let xml = Blas_xml.Printer.pretty tree in
  (match output with
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc xml);
    Printf.printf "wrote %s (%s)\n" path
      (Blas_xml.Doc_stats.size_human (String.length xml))
  | None -> print_string xml);
  `Ok ()

let generate_cmd =
  let dataset =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("shakespeare", `Shakespeare);
                  ("protein", `Protein);
                  ("auction", `Auction);
                ]))
          None
      & info [] ~docv:"DATASET" ~doc:"One of shakespeare, protein, auction.")
  in
  let scale =
    Arg.(value & opt int 2 & info [ "scale" ] ~doc:"Relative size (2 is small).")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"PRNG seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout by default).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic data set in the paper's three shapes.")
    Term.(ret (const generate $ logs_term $ dataset $ scale $ seed $ output))

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

(* The machine-readable form of [stats]: same numbers as the text
   output (plus the cumulative I/O totals), one JSON object. *)
let stats_json storage =
  let doc = Blas.Storage.doc storage in
  let guide = Blas.Storage.guide storage in
  let table = storage.Blas.Storage.table in
  let free, span = Blas.Update.gap_budget storage in
  let pool = Blas.Storage.pool storage in
  let open Blas_obs.Json in
  Obj
    ([
       ("nodes", Int (Blas_xpath.Doc.node_count doc));
       ("tags", Int (List.length (Blas_xml.Dataguide.distinct_tags guide)));
       ("depth", Int (Blas_xml.Dataguide.max_depth guide));
       ("paths", Int (List.length (Blas_xml.Dataguide.all_paths guide)));
       ( "update_headroom",
         Obj
           [
             ("free_positions", Int free);
             ("span", Int span);
             ("tag_count", Int (Blas_label.Tag_table.tag_count table));
             ("height", Int (Blas_label.Tag_table.height table));
             ("m", Str (Blas_label.Bignum.to_string (Blas_label.Tag_table.m table)));
           ] );
       ( "pool",
         Obj
           [
             ("requests", Int (Blas_rel.Buffer_pool.requests pool));
             ("misses", Int (Blas_rel.Buffer_pool.misses pool));
             ("writes", Int (Blas_rel.Buffer_pool.writes pool));
             ( "dirty_evictions",
               Int (Blas_rel.Buffer_pool.dirty_evictions pool) );
           ] );
       ( "optimizer",
         match Blas.Storage.ostats storage with
         | None -> Null
         | Some st -> Blas.Optimizer.Stats.to_json st );
     ]
    @
    match Blas.Storage.disk storage with
    | None -> []
    | Some d ->
      let s = d.Blas.Storage.dk_stats () in
      let io = d.Blas.Storage.dk_io () in
      [
        ( "disk",
          Obj
            [
              ("path", Str s.Blas.Storage.dstat_path);
              ("codec", Str s.Blas.Storage.dstat_codec);
              ("file_bytes", Int s.Blas.Storage.dstat_file_bytes);
              ("page_size", Int s.Blas.Storage.dstat_page_size);
              ("pages", Int s.Blas.Storage.dstat_page_count);
              ("live_pages", Int s.Blas.Storage.dstat_live_pages);
              ("free_pages", Int s.Blas.Storage.dstat_free_pages);
              ("live_bytes", Int s.Blas.Storage.dstat_live_bytes);
              ("wal_bytes", Int s.Blas.Storage.dstat_wal_bytes);
              ("cache_pages", Int s.Blas.Storage.dstat_cache_pages);
              ("cache_resident", Int s.Blas.Storage.dstat_cache_resident);
              ( "tables",
                List
                  (List.map
                     (fun (ts : Blas.Storage.table_stats) ->
                       let fpe den num =
                         if den = 0 then 0.0
                         else float_of_int num /. float_of_int den
                       in
                       Obj
                         [
                           ("name", Str ts.Blas.Storage.ts_name);
                           ("entries", Int ts.ts_entries);
                           ("data_pages", Int ts.ts_data_pages);
                           ("payload_bytes", Int ts.ts_payload_bytes);
                           ("v1_bytes", Int ts.ts_v1_bytes);
                           ( "bytes_per_entry",
                             Float (fpe ts.ts_entries ts.ts_payload_bytes) );
                           ( "entries_per_page",
                             Float (fpe ts.ts_data_pages ts.ts_entries) );
                           ( "compression_ratio",
                             Float (fpe ts.ts_payload_bytes ts.ts_v1_bytes) );
                           ( "page_utilization",
                             Float
                               (fpe
                                  (ts.ts_data_pages
                                  * s.Blas.Storage.dstat_page_size)
                                  ts.ts_payload_bytes) );
                         ])
                     s.Blas.Storage.dstat_tables) );
              ("wal_fsyncs", Int io.Blas_disk.Store.io_wal_fsyncs);
              ("wal_fsync_ns", Int io.Blas_disk.Store.io_wal_fsync_ns);
              ("commits", Int io.Blas_disk.Store.io_commits);
              ("checkpoints", Int io.Blas_disk.Store.io_checkpoints);
              ("checkpoint_ns", Int io.Blas_disk.Store.io_checkpoint_ns);
              ("page_reads", Int io.Blas_disk.Store.io_page_reads);
              ("page_read_ns", Int io.Blas_disk.Store.io_page_read_ns);
            ] );
      ])

let stats () ?cache_pages ?stats_seed ~json path =
  apply_stats_seed stats_seed;
  match load_storage ?cache_pages path with
  | Error msg -> `Error (false, msg)
  | Ok storage when json ->
    print_endline (Blas_obs.Json.to_string_pretty (stats_json storage));
    `Ok ()
  | Ok storage ->
    let doc = Blas.Storage.doc storage in
    let guide = Blas.Storage.guide storage in
    Printf.printf "nodes:  %d\ntags:   %d\ndepth:  %d\npaths:  %d\n"
      (Blas_xpath.Doc.node_count doc)
      (List.length (Blas_xml.Dataguide.distinct_tags guide))
      (Blas_xml.Dataguide.max_depth guide)
      (List.length (Blas_xml.Dataguide.all_paths guide));
    (* Index mutability: how much room updates have before a localized
       renumbering, and what the P-label inventory can still absorb. *)
    let table = storage.Blas.Storage.table in
    let free, span = Blas.Update.gap_budget storage in
    Printf.printf "update headroom:\n";
    Printf.printf "  free D-label positions: %d of %d (%.1f%%)\n" free span
      (100.0 *. float_of_int free /. float_of_int (max span 1));
    Printf.printf "  tag inventory: %d tags, height %d, m = %s\n"
      (Blas_label.Tag_table.tag_count table)
      (Blas_label.Tag_table.height table)
      (Blas_label.Bignum.to_string (Blas_label.Tag_table.m table));
    Printf.printf "  P-label intervals allocated: %d\n"
      (List.length (Blas_xml.Dataguide.all_paths guide));
    (match Blas.Storage.disk storage with
    | None -> ()
    | Some d ->
      let s = d.Blas.Storage.dk_stats () in
      let pct num den = 100.0 *. float_of_int num /. float_of_int (max den 1) in
      Printf.printf "on-disk storage:\n";
      Printf.printf "  file: %s (%d bytes, %d pages of %d, codec %s)\n"
        s.Blas.Storage.dstat_path s.dstat_file_bytes s.dstat_page_count
        s.dstat_page_size s.dstat_codec;
      List.iter
        (fun (ts : Blas.Storage.table_stats) ->
          let fpe den num =
            if den = 0 then 0.0 else float_of_int num /. float_of_int den
          in
          Printf.printf
            "  %s: %d entries, %d data pages (%.1f entries/page, %.1f \
             bytes/entry), %.2fx vs v1, %.1f%% page utilization\n"
            ts.Blas.Storage.ts_name ts.ts_entries ts.ts_data_pages
            (fpe ts.ts_data_pages ts.ts_entries)
            (fpe ts.ts_entries ts.ts_payload_bytes)
            (fpe ts.ts_payload_bytes ts.ts_v1_bytes)
            (100.0
            *. fpe (ts.ts_data_pages * s.dstat_page_size) ts.ts_payload_bytes))
        s.dstat_tables;
      Printf.printf "  page utilization: %d/%d pages live (%.1f%%), %d free, %d payload bytes (%.1f%% of file)\n"
        s.dstat_live_pages s.dstat_page_count
        (pct s.dstat_live_pages s.dstat_page_count)
        s.dstat_free_pages
        s.dstat_live_bytes
        (pct s.dstat_live_bytes s.dstat_file_bytes);
      Printf.printf "  wal: %d bytes pending checkpoint\n" s.dstat_wal_bytes;
      Printf.printf "  page cache: %d/%d pages resident (%.1f%%)\n"
        s.dstat_cache_resident s.dstat_cache_pages
        (pct s.dstat_cache_resident s.dstat_cache_pages);
      let io = d.Blas.Storage.dk_io () in
      Printf.printf
        "  io: %d page reads (%.1f ms), %d commits, %d WAL fsyncs (%.1f ms), \
         %d checkpoints (%.1f ms)\n"
        io.Blas_disk.Store.io_page_reads
        (float_of_int io.Blas_disk.Store.io_page_read_ns /. 1e6)
        io.Blas_disk.Store.io_commits io.Blas_disk.Store.io_wal_fsyncs
        (float_of_int io.Blas_disk.Store.io_wal_fsync_ns /. 1e6)
        io.Blas_disk.Store.io_checkpoints
        (float_of_int io.Blas_disk.Store.io_checkpoint_ns /. 1e6));
    (match Blas.Storage.ostats storage with
    | None -> print_endline "optimizer statistics: (none collected)"
    | Some st -> Format.printf "%a@." Blas.Optimizer.Stats.pp st);
    `Ok ()

let stats_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the same numbers as one machine-readable JSON object.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print document characteristics (Figure 12 columns).")
    Term.(
      ret
        (const (fun () pages json seed path ->
             stats () ?cache_pages:pages ?stats_seed:seed ~json path)
        $ logs_term $ pages_arg $ json_arg $ stats_seed_arg $ input_arg))

(* ------------------------------------------------------------------ *)
(* translate                                                           *)

let translate () query_string translator path =
  match load_storage path, parse_query query_string with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok storage, Ok query ->
    Printf.printf "query: %s\ntranslator: %s\n\n"
      (Blas_xpath.Pretty.to_string query)
      (Blas.translator_name translator);
    (if translator <> Blas.D_labeling then begin
       let branches = Blas.decompose storage translator query in
       List.iteri
         (fun i branch ->
           Printf.printf "-- decomposition branch %d --\n%s\n" (i + 1)
             (Format.asprintf "%a" Blas.Suffix_query.pp branch))
         branches
     end);
    (match Blas.sql_for storage translator query with
    | Some sql -> Printf.printf "\nSQL:\n%s\n" (Blas_rel.Sql_print.to_string sql)
    | None -> print_endline "\nSQL: (provably empty: some path does not occur)");
    `Ok ()

let translate_cmd =
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Decompose an XPath query into suffix path subqueries and show the SQL.")
    Term.(ret (const translate $ logs_term $ query_arg $ translator_arg $ input_arg))

(* ------------------------------------------------------------------ *)
(* plan                                                                *)

let plan () query_string translator path =
  match load_storage path, parse_query query_string with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok storage, Ok query ->
    (match Blas.plan_for storage translator query with
    | Some plan ->
      print_endline (Blas_rel.Algebra.to_string plan);
      let profile = Blas_rel.Algebra.selection_profile plan in
      Printf.printf "\nD-joins: %d, selections: %d equality / %d range / %d scans\n"
        (Blas_rel.Algebra.count_djoins plan)
        profile.Blas_rel.Algebra.equality profile.range profile.scans
    | None -> print_endline "(provably empty)");
    (match Blas.Storage.ostats storage with
    | Some stats when translator <> Blas.D_labeling ->
      let estimate =
        Blas.Cost.estimate_decomposition stats
          (Blas.decompose storage translator query)
      in
      Format.printf "estimated cost: %a@." Blas.Cost.pp_estimate estimate
    | _ -> ());
    `Ok ()

let plan_cmd =
  Cmd.v
    (Cmd.info "plan" ~doc:"Show the compiled physical plan (Figure 11 style).")
    Term.(ret (const plan $ logs_term $ query_arg $ translator_arg $ input_arg))

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run () query_string translator engine verify show_limit as_xml explain
    analyze show_stats no_cache pages stats_seed path =
  apply_stats_seed stats_seed;
  match load_storage ?cache_pages:pages path, parse_query_union query_string with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok storage, Ok queries ->
    Blas.Storage.set_cache_enabled storage (not no_cache);
    let t0 = Blas_obs.Clock.now_ns () in
    let report =
      if analyze then begin
        let analyzed =
          List.map (Blas.run_analyze storage ~engine ~translator) queries
        in
        List.iter
          (fun (_, tree) -> Format.printf "%a@." Blas_obs.Analyze.pp tree)
          analyzed;
        Blas.union_report (List.map fst analyzed)
      end
      else Blas.run_union storage ~engine ~translator queries
    in
    let dt = Int64.to_float (Blas_obs.Clock.elapsed_ns t0) /. 1e9 in
    let plan_desc =
      (* Under [Auto2] the executed plan is the optimizer's pick, not
         the -t/-e flags — report what actually ran. *)
      match report.Blas.choice with
      | Some c ->
        Printf.sprintf "%s via %s, est %.0f"
          (Blas.translator_name translator)
          (Blas.Optimizer.label c) c.Blas.Optimizer.ch_est_cost
      | None ->
        Printf.sprintf "%s on %s"
          (Blas.translator_name translator)
          (Blas.engine_name engine)
    in
    Printf.printf "%d answers in %.4fs (%s), %d elements visited, %d D-joins\n"
      (List.length report.Blas.starts)
      dt plan_desc report.visited report.plan_djoins;
    if show_stats then
      Format.printf "counters: %a@." Blas_rel.Counters.pp report.counters;
    (* Only the shown answers are looked up: on a database the first
       lookup builds the document model (a full SD scan), so a run that
       shows nothing never builds it. *)
    List.iteri
      (fun i start ->
        if i < show_limit then
          match Blas.node_at storage start with
          | Some node ->
            if as_xml then
              print_endline (Blas_xml.Printer.compact (Blas_xpath.Doc.subtree node))
            else
              Printf.printf "  %d: <%s> %s\n" start node.Blas_xpath.Doc.tag
                (match node.data with Some d -> Printf.sprintf "%S" d | None -> "");
            if explain then
              Printf.printf "      at /%s\n" (String.concat "/" node.source_path)
          | None -> Printf.printf "  %d\n" start
        else if i = show_limit then print_endline "  ...")
      report.starts;
    if verify then begin
      let expected = Blas.oracle_union storage queries in
      if expected = report.starts then print_endline "verified against the naive evaluator"
      else begin
        print_endline "MISMATCH with the naive evaluator!";
        exit 2
      end
    end;
    `Ok ()

let run_cmd =
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Check the answer against the naive evaluator.")
  in
  let show =
    Arg.(value & opt int 10 & info [ "show" ] ~doc:"How many answers to print.")
  in
  let as_xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Print answers as XML subtrees.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print each answer's ancestor path.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "EXPLAIN ANALYZE: print the executed operator tree with actual \
             row counts, elapsed time and I/O per operator.")
  in
  let show_stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the run's full cost-counter vector.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an XPath query end to end.")
    Term.(
      ret
        (const run $ logs_term $ query_arg
       $ translator_arg_with ~default:Blas.Auto2
       $ engine_arg $ verify $ show $ as_xml $ explain $ analyze $ show_stats
       $ no_cache_arg $ pages_arg $ stats_seed_arg $ input_arg))

(* ------------------------------------------------------------------ *)
(* index                                                               *)

(* The one saved format: [index -o] and [update -o] both write a
   database file.  A database locked by another process (a running
   server) is refused before its WAL is touched. *)
let write_database ?codec ?page_size storage path =
  match Blas.Database.create ?codec ?page_size ~path storage with
  | () -> Ok ()
  | exception (Invalid_argument msg | Blas.Database.Corrupt msg) -> Error msg
  | exception Unix.Unix_error (err, fn, _) ->
    Error (Printf.sprintf "%s: %s (%s)" path (Unix.error_message err) fn)

let index_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Output database file (the paged on-disk storage engine; \
             conventionally $(b,.blasdb)).")
  in
  let page_size =
    Arg.(
      value & opt int 4096
      & info [ "page-size" ] ~docv:"BYTES"
          ~doc:"Page size of the output database (power-of-two sizes work best).")
  in
  let codec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "codec" ] ~docv:"CODEC"
          ~doc:
            "Page codec of the output database: $(b,v1) (row-major, the \
             historical layout readable by any version) or $(b,v2) \
             (compact columnar: delta-compressed D-labels, front-coded \
             P-labels — smaller files, fewer page reads).  The choice is \
             recorded in the catalog; both kinds open transparently.")
  in
  let build () input output page_size codec stats_seed =
    apply_stats_seed stats_seed;
    let codec =
      match codec with
      | None -> Ok None
      | Some name -> (
        match Blas_rel.Codec.format_of_name name with
        | Some f -> Ok (Some f)
        | None ->
          Error (Printf.sprintf "unknown codec %S (expected v1 or v2)" name))
    in
    match (load_storage input, codec) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok storage, Ok codec -> (
      match write_database ?codec ~page_size storage output with
      | Error msg -> `Error (false, msg)
      | Ok () ->
        let codec_name =
          Blas_rel.Codec.format_name
            (Option.value ~default:Blas_rel.Codec.default_format codec)
        in
        Printf.printf
          "indexed %d nodes -> %s (database, %d-byte pages, %s codec)\n"
          (Blas.Storage.node_count storage) output page_size codec_name;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:
         "Build and save an index; other commands accept the saved file in \
          place of XML.")
    Term.(
      ret
        (const build $ logs_term $ input_arg $ output $ page_size $ codec_arg
       $ stats_seed_arg))

(* ------------------------------------------------------------------ *)
(* update                                                              *)

let update () insert_xml parent pos delete rtext data output path =
  (* Database files are edited in place (each edit is one committed
     transaction), so they need a writable open. *)
  (* Refused before the edit commits: [Database.create] would refuse the
     copy too, but only after the input had changed in place. *)
  if Option.fold ~none:false ~some:(Blas.Database.same_file path) output then
    `Error
      ( false,
        Printf.sprintf
          "-o %s names the input file (a database commits edits in place: \
           omit -o)"
          path )
  else
  match load_storage ~rw:true path with
  | Error msg -> `Error (false, msg)
  | Ok storage -> (
    let op =
      match (insert_xml, delete, rtext) with
      | Some xml, None, None -> (
        match parent with
        | None -> Error "--insert requires --parent"
        | Some parent -> (
          try
            let tree = Blas_xml.Dom.parse xml in
            (* Without --pos the fragment is appended after the last
               element child. *)
            let pos =
              match pos with
              | Some pos -> pos
              | None -> (
                match Blas.node_at storage parent with
                | Some node -> List.length node.Blas_xpath.Doc.children
                | None -> 0)
            in
            Ok (fun () -> Blas.Update.insert_subtree storage ~parent ~pos tree)
          with
          | Blas_xml.Types.Parse_error (p, msg) ->
            Error
              (Printf.sprintf "--insert: %s at %s" msg
                 (Blas_xml.Types.position_to_string p))
          | Failure msg -> Error (Printf.sprintf "--insert: %s" msg)))
      | None, Some start, None ->
        Ok (fun () -> Blas.Update.delete_subtree storage ~start)
      | None, None, Some start ->
        Ok (fun () -> Blas.Update.replace_text storage ~start data)
      | _ -> Error "exactly one of --insert, --delete, --replace-text is required"
    in
    match op with
    | Error msg -> `Error (false, msg)
    | Ok run -> (
      match run () with
      | exception Invalid_argument msg -> `Error (false, msg)
      | report ->
        Format.printf "%a@." Blas.Update.pp_report report;
        let free, span = Blas.Update.gap_budget storage in
        Printf.printf "gap budget now: %d of %d positions free\n" free span;
        (match Blas.Storage.disk storage with
        | Some d ->
          Printf.printf "committed to %s\n" d.Blas.Storage.dk_path
        | None -> ());
        match output with
        | None -> `Ok ()
        | Some out -> (
          match
            write_database ~codec:(Blas.Storage.codec storage) storage out
          with
          | Error msg -> `Error (false, msg)
          | Ok () ->
            Printf.printf "wrote %s (%d nodes)\n" out
              (Blas.Storage.node_count storage);
            `Ok ())))

let update_cmd =
  let insert =
    Arg.(
      value
      & opt (some string) None
      & info [ "insert" ] ~docv:"XML"
          ~doc:"Insert this XML fragment as a child of --parent (at --pos).")
  in
  let parent =
    Arg.(
      value
      & opt (some int) None
      & info [ "parent" ] ~docv:"POS"
          ~doc:"Start position of the parent node for --insert.")
  in
  let pos =
    Arg.(
      value
      & opt (some int) None
      & info [ "pos" ] ~docv:"N"
          ~doc:"Child position for --insert (default: append last).")
  in
  let delete =
    Arg.(
      value
      & opt (some int) None
      & info [ "delete" ] ~docv:"POS"
          ~doc:"Delete the subtree rooted at this start position.")
  in
  let rtext =
    Arg.(
      value
      & opt (some int) None
      & info [ "replace-text" ] ~docv:"POS"
          ~doc:"Replace the text value of the node at this start position.")
  in
  let data =
    Arg.(
      value
      & opt (some string) None
      & info [ "data" ] ~docv:"TEXT"
          ~doc:"New text value for --replace-text (omit to clear).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the updated document to this new database file.")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Edit an indexed document in place: insert or delete a subtree, or \
          replace a text value, with incremental D-/P-label maintenance.")
    Term.(
      ret
        (const update $ logs_term $ insert $ parent $ pos $ delete $ rtext
       $ data $ output $ input_arg))

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

let profile () query_string translator engine repeat json no_cache path =
  match load_storage path, parse_query_union query_string with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok storage, Ok queries ->
    if repeat < 1 then `Error (false, "--repeat must be >= 1")
    else begin
      Blas.Storage.set_cache_enabled storage (not no_cache);
      let registry = Blas_obs.Metrics.create () in
      let tracer = Blas_obs.Trace.create () in
      Blas.set_metrics (Some registry);
      (* Warm-up repetitions populate the latency histograms; the final
         repetition runs in EXPLAIN ANALYZE mode for the operator tree. *)
      for _ = 2 to repeat do
        List.iter
          (fun q -> ignore (Blas.run ~tracer storage ~engine ~translator q))
          queries
      done;
      let analyzed =
        List.map (Blas.run_analyze ~tracer storage ~engine ~translator) queries
      in
      Blas.set_metrics None;
      let report = Blas.union_report (List.map fst analyzed) in
      if json then
        print_endline
          (Blas_obs.Json.to_string_pretty
             (Blas_obs.Json.Obj
                [
                  ("query", Blas_obs.Json.Str query_string);
                  ("translator", Blas_obs.Json.Str (Blas.translator_name translator));
                  ("engine", Blas_obs.Json.Str (Blas.engine_name engine));
                  ("repeat", Blas_obs.Json.Int repeat);
                  ("answers", Blas_obs.Json.Int (List.length report.Blas.starts));
                  ( "analyze",
                    Blas_obs.Json.List
                      (List.map
                         (fun (_, tree) -> Blas_obs.Analyze.to_json tree)
                         analyzed) );
                  ("trace", Blas_obs.Trace.to_json tracer);
                  ("metrics", Blas_obs.Metrics.to_json registry);
                ]))
      else begin
        Printf.printf "%d answers (%s on %s)\n\n"
          (List.length report.Blas.starts)
          (Blas.translator_name translator)
          (Blas.engine_name engine);
        print_endline "-- EXPLAIN ANALYZE --";
        List.iter
          (fun (_, tree) -> Format.printf "%a@." Blas_obs.Analyze.pp tree)
          analyzed;
        print_endline "\n-- trace --";
        Format.printf "%a@." Blas_obs.Trace.pp tracer;
        print_endline "\n-- metrics --";
        Format.printf "%a@." Blas_obs.Metrics.pp registry
      end;
      `Ok ()
    end

let profile_cmd =
  let repeat =
    Arg.(
      value & opt int 5
      & info [ "repeat"; "n" ] ~docv:"N"
          ~doc:"Run the query N times (populates the latency histograms).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the whole profile as a JSON document.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a query: EXPLAIN ANALYZE operator tree, lifecycle span \
          trace, and a metrics registry (latency percentiles, I/O totals).")
    Term.(
      ret
        (const profile $ logs_term $ query_arg $ translator_arg $ engine_arg
       $ repeat $ json $ no_cache_arg $ input_arg))

(* ------------------------------------------------------------------ *)
(* cache                                                               *)

let cache_view () query_string translator engine repeat path =
  match load_storage path, parse_query_union query_string with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok storage, Ok queries ->
    if repeat < 1 then `Error (false, "--repeat must be >= 1")
    else begin
      let time f =
        let t0 = Blas_obs.Clock.now_ns () in
        f ();
        Int64.to_float (Blas_obs.Clock.elapsed_ns t0) /. 1e6
      in
      let run_all ~cache =
        List.iter
          (fun q -> ignore (Blas.run ~cache storage ~engine ~translator q))
          queries
      in
      let cold_ms =
        time (fun () ->
            for _ = 1 to repeat do
              run_all ~cache:false
            done)
      in
      let warm_ms =
        time (fun () ->
            for _ = 1 to repeat do
              run_all ~cache:true
            done)
      in
      let stats = Blas.Storage.cache_stats storage in
      Printf.printf
        "%d queries x %d repetitions (%s on %s)\n\
         cold (cache bypassed): %8.3f ms\n\
         warm (cache enabled):  %8.3f ms   speedup %.2fx\n\n"
        (List.length queries) repeat
        (Blas.translator_name translator)
        (Blas.engine_name engine) cold_ms warm_ms
        (cold_ms /. Float.max warm_ms 1e-6);
      Format.printf "%a@." Blas.Cache.pp_stats stats;
      Printf.printf "hit rate: %.1f%%\n"
        (100. *. Blas.Cache.hit_rate stats);
      `Ok ()
    end

let cache_cmd =
  let repeat =
    Arg.(
      value & opt int 5
      & info [ "repeat"; "n" ] ~docv:"N"
          ~doc:"Run the workload N times cold, then N times warm.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Exercise the semantic query cache: run a workload cold (cache \
          bypassed) and warm (cache enabled), and print the timing ratio \
          plus the cache's hit/miss/eviction statistics.")
    Term.(
      ret
        (const cache_view $ logs_term $ query_arg $ translator_arg
       $ engine_arg $ repeat $ input_arg))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve () name host port docs_dir jobs max_inflight queue_depth timeout_ms
    no_cache allow_sleep metrics_port slow_ms slow_log group_commit_ms
    shard_of pages =
  if
    match shard_of with
    | Some (k, n) -> n < 1 || k < 0 || k >= n
    | None -> false
  then `Error (false, "--shard expects K/N with 0 <= K < N")
  else
    (* --shard K/N hosts only the documents the cluster shard map
       assigns to shard K — every shard process points at the same
       --docs directory and they partition it consistently.  The filter
       runs on names, before files are opened: a shard must not take
       the database-file lock of documents it does not host. *)
    let keep =
      match shard_of with
      | None -> fun _ -> true
      | Some (k, n) ->
        let map = Blas_cluster.Shard_map.create ~shards:n () in
        fun name -> Blas_cluster.Shard_map.shard_of_doc map name = k
    in
    (* Writable: live UPDATE verbs against database files commit to the
       file; XML-backed documents are unaffected.  One buffer-pool stripe
       per worker domain, so the domains of [-j N] do not all take one
       pool lock. *)
    match
      Blas.Loader.load_dir ~rw:true ?cache_pages:pages ~stripes:(max 1 jobs) ~keep
        docs_dir
    with
    | Error msg -> `Error (false, msg)
    | Ok [] when shard_of = None ->
      `Error
        ( false,
          Printf.sprintf "no *.xml, *.blas or *.blasdb files in %s" docs_dir )
    | Ok docs ->
    let config =
      {
        Blas_server.Server.default_config with
        name;
        host;
        port;
        jobs;
        max_inflight;
        queue_depth;
        default_deadline_ms = timeout_ms;
        cache = not no_cache;
        allow_sleep;
        metrics_port;
        slow_ms;
        slow_log;
        group_commit_ms;
      }
    in
    let server = Blas_server.Server.start config ~docs in
    (* The handler must stay async-signal-safe: one atomic store.  The
       drain itself runs below, on the main thread. *)
    let request _ = Blas_server.Server.request_shutdown server in
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request));
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle request));
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    Printf.printf "serving %d document(s) on %s:%d\n%!" (List.length docs) host
      (Blas_server.Server.port server);
    Option.iter
      (fun p -> Printf.printf "metrics on http://%s:%d/metrics\n%!" host p)
      (Blas_server.Server.metrics_port server);
    Blas_server.Server.wait server;
    prerr_endline "draining...";
    Blas_server.Server.stop server;
    print_endline (Blas_server.Server.stats_payload server);
    `Ok ()

let serve_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let port =
    Arg.(
      value & opt int 4004
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port (0 picks an ephemeral port).")
  in
  let docs_dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "docs" ] ~docv:"DIR"
          ~doc:"Directory of documents to host (every *.xml and *.blas file).")
  in
  let max_inflight =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Worker threads executing requests concurrently.")
  in
  let queue_depth =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission slots beyond the workers; past that, requests get an \
             immediate BUSY instead of queueing.")
  in
  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline; requests running past it answer \
             TIMEOUT.  A client's DEADLINE header overrides it per request.")
  in
  let allow_sleep =
    Arg.(
      value & flag
      & info [ "allow-sleep" ]
          ~doc:"Accept the debug SLEEP verb (tests and benchmarks only).")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Also serve plain-HTTP GET /metrics (Prometheus text format) and \
             /metrics.json on this port (0 picks an ephemeral port).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log requests at or above this latency to the slow-query log \
             (structured JSONL, size-rotated).")
  in
  let slow_log =
    Arg.(
      value
      & opt string Blas_server.Server.default_config.slow_log
      & info [ "slow-log" ] ~docv:"PATH"
          ~doc:"Slow-query log path (with --slow-ms).")
  in
  let name_arg =
    Arg.(
      value
      & opt string Blas_server.Server.default_config.name
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Server identity, announced in the HELLO handshake.")
  in
  let group_commit_ms =
    Arg.(
      value
      & opt float Blas_server.Server.default_config.group_commit_ms
      & info [ "group-commit-ms" ] ~docv:"MS"
          ~doc:
            "Group commit: batch WAL fsyncs of concurrent UPDATEs to the \
             same database file within this window (0 = every commit \
             fsyncs on its own).")
  in
  let shard_of =
    let shard_conv =
      let parse s =
        match String.index_opt s '/' with
        | Some i -> (
          match
            ( int_of_string_opt (String.sub s 0 i),
              int_of_string_opt
                (String.sub s (i + 1) (String.length s - i - 1)) )
          with
          | Some k, Some n -> Ok (k, n)
          | _ -> Error (`Msg (Printf.sprintf "expected K/N, got %S" s)))
        | None -> Error (`Msg (Printf.sprintf "expected K/N, got %S" s))
      in
      let print ppf (k, n) = Format.fprintf ppf "%d/%d" k n in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"K/N"
          ~doc:
            "Host only the documents the $(b,N)-shard cluster map assigns \
             to shard $(b,K) (0-based).  Every shard process points at the \
             same --docs directory; together they partition it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a document collection over TCP: concurrent queries, exclusive \
          live updates, bounded admission with BUSY backpressure, deadlines, \
          and a graceful drain on SIGTERM.")
    Term.(
      ret
        (const serve $ logs_term $ name_arg $ host $ port $ docs_dir $ jobs_arg
       $ max_inflight $ queue_depth $ timeout_ms $ no_cache_arg $ allow_sleep
       $ metrics_port $ slow_ms $ slow_log $ group_commit_ms $ shard_of
       $ pages_arg))

(* ------------------------------------------------------------------ *)
(* connect / query (network clients)                                   *)

let endpoint_arg =
  let doc = "Server endpoint, $(i,HOST:PORT) or bare $(i,PORT)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

let endpoint_pos_arg =
  let doc = "Server endpoint, $(i,HOST:PORT) or bare $(i,PORT)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc)

let with_endpoint endpoint f =
  match Blas_server.Client.parse_endpoint endpoint with
  | exception Invalid_argument msg -> `Error (false, msg)
  | host, port -> (
    match Blas_server.Client.with_client ~host port f with
    | result -> result
    | exception Unix.Unix_error (e, _, _) ->
      `Error
        (false, Printf.sprintf "cannot reach %s: %s" endpoint (Unix.error_message e)))

let connect () endpoint =
  with_endpoint endpoint (fun client ->
      (* A line-oriented REPL: raw protocol in, rendered replies out. *)
      let rec loop () =
        (match Sys.getenv_opt "BLAS_NO_PROMPT" with
        | Some _ -> ()
        | None -> print_string "blas> ");
        flush stdout;
        match input_line stdin with
        | exception End_of_file -> ()
        | "" -> loop ()
        | line when
            (match Blas_server.Proto.parse_command line with
            | Ok
                ( Blas_server.Proto.Deadline _ | Blas_server.Proto.Trace_hdr
                | Blas_server.Proto.Trace_id _ | Blas_server.Proto.Trace_bg _
                  ) ->
              true
            | _ -> false) ->
          (* Headers carry no reply frame — send and keep reading. *)
          Blas_server.Client.send_line client line;
          loop ()
        | line -> (
          match Blas_server.Client.raw client line with
          | reply ->
            print_endline (Blas_server.Proto.reply_to_string reply);
            (match reply with Blas_server.Proto.Bye -> () | _ -> loop ())
          | exception Blas_server.Client.Closed ->
            prerr_endline "server closed the connection")
      in
      loop ();
      `Ok ())

let connect_cmd =
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Interactive REPL against a running blas server (raw wire protocol; \
          try PING, LIST, STATS, QUERY, UPDATE, QUIT).")
    Term.(ret (const connect $ logs_term $ endpoint_pos_arg))

let net_query () endpoint doc_name query_string translator engine deadline_ms =
  with_endpoint endpoint (fun client ->
      match
        Blas_server.Client.query ?deadline_ms client ~doc:doc_name ~translator
          ~engine query_string
      with
      | Blas_server.Proto.Ok_payload payload ->
        print_endline payload;
        `Ok ()
      | Blas_server.Proto.Err msg -> `Error (false, msg)
      | Blas_server.Proto.Busy -> `Error (false, "server busy (admission queue full)")
      | Blas_server.Proto.Timeout -> `Error (false, "deadline exceeded")
      | Blas_server.Proto.Bye -> `Error (false, "server hung up")
      | exception Blas_server.Client.Closed -> `Error (false, "server hung up"))

let query_cmd =
  let doc_name =
    Arg.(
      required
      & opt (some string) None
      & info [ "doc" ] ~docv:"NAME"
          ~doc:"Hosted document name (see LIST / blas connect).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline; a late answer becomes TIMEOUT.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"One-shot query against a running blas server.")
    Term.(
      ret
        (const net_query $ logs_term $ endpoint_arg $ doc_name $ query_arg
       $ translator_arg_with ~default:Blas.Auto2
       $ engine_arg $ deadline_ms))

(* ------------------------------------------------------------------ *)
(* route / cluster (the sharded serving tier)                          *)

module Router = Blas_cluster.Router

let hedge_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "auto" -> Ok Router.Hedge_auto
    | "off" | "none" -> Ok Router.Hedge_off
    | s -> (
      match float_of_string_opt s with
      | Some ms when ms > 0.0 -> Ok (Router.Hedge_ms ms)
      | _ -> Error (`Msg (Printf.sprintf "expected auto, off or <ms>, got %S" s)))
  in
  let print ppf = function
    | Router.Hedge_auto -> Format.pp_print_string ppf "auto"
    | Router.Hedge_off -> Format.pp_print_string ppf "off"
    | Router.Hedge_ms ms -> Format.fprintf ppf "%g" ms
  in
  Arg.conv (parse, print)

let hedge_arg =
  Arg.(
    value
    & opt hedge_conv Router.default_config.Router.hedge
    & info [ "hedge-ms" ] ~docv:"auto|off|MS"
        ~doc:
          "Hedged reads: after this delay with no answer, race a second \
           attempt against another endpoint of the same shard.  $(b,auto) \
           derives the delay from the shard's observed p99 latency; \
           $(b,off) disables hedging.")

let replicas_arg =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docv:"K"
        ~doc:
          "Read replicas per shard: every group of 1+K consecutive \
           endpoints in --shards is one shard, primary first.")

(* Start a router over already-parsed groups, run it until SIGTERM /
   SIGINT, drain, and print the final stats — the shared back half of
   [route] and [cluster]. *)
let run_router config =
  match Router.start config with
  | exception Invalid_argument msg -> `Error (false, msg)
  | exception Unix.Unix_error (e, _, arg) ->
    `Error
      ( false,
        Printf.sprintf "cannot start router: %s%s" (Unix.error_message e)
          (if arg = "" then "" else " (" ^ arg ^ ")") )
  | router ->
    let request _ = Router.request_shutdown router in
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request));
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle request));
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    Printf.printf "routing %d shard(s) on %s:%d\n%!" (Router.shards router)
      config.Router.host (Router.port router);
    Option.iter
      (fun p ->
        Printf.printf "metrics on http://%s:%d/metrics\n%!"
          config.Router.host p)
      (Router.metrics_port router);
    Router.wait router;
    prerr_endline "draining...";
    Router.stop router;
    print_endline (Router.stats_payload router);
    `Ok ()

let route () host port shards replicas hedge max_inflight queue_depth
    timeout_ms metrics_port =
  match
    let endpoints =
      String.split_on_char ',' shards
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map Router.endpoint_of_string
    in
    Router.groups_of_endpoints ~replicas endpoints
  with
  | exception Invalid_argument msg -> `Error (false, msg)
  | [] -> `Error (false, "--shards needs at least one endpoint")
  | groups ->
    run_router
      {
        Router.default_config with
        Router.host;
        port;
        groups;
        hedge;
        max_inflight;
        queue_depth;
        default_deadline_ms = timeout_ms;
        metrics_port;
      }

let route_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind the front socket.")
  in
  let port =
    Arg.(
      value & opt int 4104
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Front TCP port (0 picks an ephemeral port).")
  in
  let shards =
    Arg.(
      required
      & opt (some string) None
      & info [ "shards" ] ~docv:"EP,EP,..."
          ~doc:
            "Comma-separated shard endpoints ($(i,HOST:PORT) or bare \
             $(i,PORT)).  With --replicas K, each run of 1+K endpoints is \
             one shard, primary first.")
  in
  let max_inflight =
    Arg.(
      value & opt int Router.default_config.Router.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Worker threads routing requests concurrently.")
  in
  let queue_depth =
    Arg.(
      value & opt int Router.default_config.Router.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission slots beyond the workers; past that, requests get \
             an immediate BUSY.")
  in
  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline, forwarded to the shards.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Also serve plain-HTTP GET /metrics and /metrics.json on this \
             port (0 picks an ephemeral port).")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Scatter-gather router over running blas servers: the ordinary \
          wire protocol on the front; consistent-hash document routing, \
          range-partition merging, hedged reads, per-shard circuit \
          breakers and replica fan-out of updates on the back.")
    Term.(
      ret
        (const route $ logs_term $ host $ port $ shards $ replicas_arg
       $ hedge_arg $ max_inflight $ queue_depth $ timeout_ms $ metrics_port))

(* Wait until a freshly spawned shard answers PING (it binds its port
   on startup, but give the process a moment to get there). *)
let wait_for_shard ~host ~port ~attempts =
  let rec go n =
    match
      Blas_server.Client.with_client ~host port (fun c ->
          Blas_server.Client.raw c "PING")
    with
    | _ -> true
    | exception _ ->
      if n <= 0 then false
      else begin
        Unix.sleepf 0.1;
        go (n - 1)
      end
  in
  go attempts

let cluster () host port shards replicas docs_dir base_port hedge jobs
    allow_sleep group_commit_ms metrics_port =
  if shards < 1 then `Error (false, "--shards must be >= 1")
  else if replicas < 0 then `Error (false, "--replicas must be >= 0")
  else begin
    let exe = Sys.executable_name in
    let children = ref [] in
    let spawn ~name ~shard_port ~index =
      let args =
        [
          exe; "serve"; "--docs"; docs_dir; "--host"; host;
          "--port"; string_of_int shard_port;
          "--name"; name;
          "--shard"; Printf.sprintf "%d/%d" index shards;
          "--jobs"; string_of_int jobs;
          "--group-commit-ms"; string_of_float group_commit_ms;
        ]
        @ (if allow_sleep then [ "--allow-sleep" ] else [])
      in
      let pid =
        Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout
          Unix.stderr
      in
      children := (pid, name) :: !children;
      pid
    in
    let kill_children () =
      List.iter
        (fun (pid, _) -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
        !children;
      List.iter
        (fun (pid, _) -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children
    in
    match
      (* Shard k's endpoints occupy ports base..base+replicas; every
         process hosts the --shard k/N slice of the same directory. *)
      let groups =
        List.init shards (fun k ->
            let base = base_port + (k * (1 + replicas)) in
            let eps =
              List.init (1 + replicas) (fun i ->
                  let name =
                    if i = 0 then Printf.sprintf "shard-%d" k
                    else Printf.sprintf "shard-%d-r%d" k i
                  in
                  let shard_port = base + i in
                  let pid = spawn ~name ~shard_port ~index:k in
                  Printf.printf "%s pid %d on %s:%d\n%!" name pid host
                    shard_port;
                  { Router.host; Router.port = shard_port })
            in
            match eps with
            | primary :: replicas -> { Router.primary; replicas }
            | [] -> assert false)
      in
      List.iter
        (fun { Router.primary; replicas } ->
          List.iter
            (fun (ep : Router.endpoint) ->
              if
                not
                  (wait_for_shard ~host:ep.Router.host ~port:ep.Router.port
                     ~attempts:100)
              then
                failwith
                  (Printf.sprintf "shard on %s:%d did not come up"
                     ep.Router.host ep.Router.port))
            (primary :: replicas))
        groups;
      groups
    with
    | exception Failure msg ->
      kill_children ();
      `Error (false, msg)
    | exception Unix.Unix_error (e, _, arg) ->
      kill_children ();
      `Error
        ( false,
          Printf.sprintf "cannot spawn shards: %s%s" (Unix.error_message e)
            (if arg = "" then "" else " (" ^ arg ^ ")") )
    | groups ->
      let result =
        run_router
          {
            Router.default_config with
            Router.host;
            port;
            groups;
            hedge;
            metrics_port;
          }
      in
      kill_children ();
      result
  end

let cluster_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address for the router and shards.")
  in
  let port =
    Arg.(
      value & opt int 4104
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Router front port.")
  in
  let shards =
    Arg.(
      value & opt int 3
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shards to spawn.")
  in
  let docs_dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "docs" ] ~docv:"DIR"
          ~doc:
            "Document directory; the shards partition it by the cluster \
             shard map (each hosts its own slice).")
  in
  let base_port =
    Arg.(
      value & opt int 4200
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:
            "First shard port; shard K's endpoints take ports \
             base+K*(1+replicas) .. base+K*(1+replicas)+replicas.")
  in
  let allow_sleep =
    Arg.(
      value & flag
      & info [ "allow-sleep" ]
          ~doc:"Shards accept the debug SLEEP verb (tests and benchmarks only).")
  in
  let group_commit_ms =
    Arg.(
      value
      & opt float Blas_server.Server.default_config.group_commit_ms
      & info [ "group-commit-ms" ] ~docv:"MS"
          ~doc:"Group-commit window forwarded to every shard.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:"Router metrics HTTP port (0 picks an ephemeral port).")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "One-command local cluster: spawn N shard server processes over a \
          partitioned document directory, then run the scatter-gather \
          router in front of them (SIGTERM drains everything).")
    Term.(
      ret
        (const cluster $ logs_term $ host $ port $ shards $ replicas_arg
       $ docs_dir $ base_port $ hedge_arg $ jobs_arg $ allow_sleep
       $ group_commit_ms $ metrics_port))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "BLAS: a bi-labeling based XPath processing system (SIGMOD 2004)" in
  let info = Cmd.info "blas" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            index_cmd;
            stats_cmd;
            translate_cmd;
            plan_cmd;
            run_cmd;
            profile_cmd;
            cache_cmd;
            update_cmd;
            serve_cmd;
            route_cmd;
            cluster_cmd;
            connect_cmd;
            query_cmd;
          ]))
