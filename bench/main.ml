(** Benchmark harness entry point.

    With no section argument every figure of the paper's evaluation
    section is regenerated in order, followed by the join-count table,
    the ablations, the micro-benchmarks and the instrumentation
    overhead check; section arguments (fig10 ... fig18, joins, disk,
    space, build, cache, ablate, bechamel, overhead, optimizer, codec,
    update, serve, shards) select a subset.

    Flags: [--json] also writes every printed table to
    BENCH_results.json; [--check] makes the overhead section enforce its
    regression thresholds (non-zero exit on failure). *)

let sections =
  [
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("fig13", Figures.fig13);
    ("fig14", Figures.fig14);
    ("fig15", Figures.fig15);
    ("fig16", Figures.fig16);
    ("fig17", Figures.fig17);
    ("fig18", Figures.fig18);
    ("joins", Figures.joins);
    ("disk", Disk.run);
    ("space", Figures.space);
    ("build", Figures.build);
    ("cache", Workload.run);
    ("ablate", Ablations.all);
    ("bechamel", Micro.run);
    ("overhead", Overhead.run);
    ("optimizer", Optimizer_bench.run);
    ("codec", Codec_bench.run);
    ("update", Update_bench.run);
    ("serve", Serve.run);
    ("shards", Serve.shards);
  ]

let results_file = "BENCH_results.json"

let usage () =
  Printf.eprintf
    "usage: %s [--json] [--check] [section...]\navailable: %s\n"
    Sys.argv.(0)
    (String.concat " " (List.map fst sections));
  exit 1

let () =
  (* The span/analyze clock follows the same monotonic source bechamel
     measures with. *)
  Blas_obs.Clock.set_source (fun () -> Monotonic_clock.now ());
  let json = ref false in
  let chosen = ref [] in
  let rec parse i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--json" ->
        json := true;
        parse (i + 1)
      | "--check" ->
        Overhead.check_mode := true;
        parse (i + 1)
      | name when List.mem_assoc name sections ->
        chosen := (name, List.assoc name sections) :: !chosen;
        parse (i + 1)
      | unknown ->
        Printf.eprintf "unknown section %s\n" unknown;
        usage ()
  in
  parse 1;
  Bench_util.json_enabled := !json;
  let to_run = match List.rev !chosen with [] -> sections | some -> some in
  List.iter
    (fun (name, f) ->
      Bench_util.current_section := name;
      f ())
    to_run;
  if !json then Bench_util.write_results results_file;
  if !Overhead.failed then exit 1
