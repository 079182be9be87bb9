(** Instrumentation overhead check.

    The observability layer claims to be zero-cost when disabled: a run
    with the default no-op tracer and no metrics sink should time the
    same as the bare engine path with no instrumentation entry points.
    This section times both on the Figure 13a headline query (QS3,
    Push-up, RDBMS) and reports the relative overhead; with
    {!check_mode} (the CI gate, [overhead --check]) an overhead above
    {!threshold_percent} marks the run failed.  An enabled tracer +
    registry is measured too, for scale.

    One short measurement per variant flaps on a small shared machine:
    drift between two measurements taken seconds apart is as large as
    the bound (on a 2-vCPU VM the same query's time wandered by up to 2x
    within a minute).  So each comparison
    is measured in {!rounds} rounds of paired runs of the variant and
    its baseline, back to back in random order, and the gate reads the
    median over the rounds of each round's median overhead. *)

(* Set by main's --check flag; failures are deferred to [failed] so the
   harness can still write BENCH_results.json before exiting non-zero. *)
let check_mode = ref false

let failed = ref false

let threshold_percent = 5.0

let rounds = 7

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Nanoseconds one run of [f] takes. *)
let time_ns f =
  let t0 = Bench_util.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Bench_util.now_ns ()) t0)

(* [(variant_ns, base_ns, overhead_pct)] over {!rounds} rounds.  A
   round is a run of pairs — one run of each, back to back, in random
   order (a fixed alternation can beat in step with the collector's
   periodic slices and charge them all to one side) — filling about
   0.4 s; its overhead is the median of its pairs' overheads.  The
   reported overhead is the median over the rounds; the two times are
   medians over all pairs, for scale. *)
let paired variant base =
  let pairs_per_round =
    ignore (time_ns variant);
    max 1 (int_of_float (4e8 /. Float.max 1. (time_ns variant +. time_ns base)))
  in
  let rng = Random.State.make [| pairs_per_round |] in
  let round () =
    List.init pairs_per_round (fun _ ->
        if Random.State.bool rng then
          let b = time_ns base in
          (time_ns variant, b)
        else
          let v = time_ns variant in
          (v, time_ns base))
  in
  let per_round = List.init rounds (fun _ -> round ()) in
  let overhead (v, b) = (v -. b) /. b *. 100.0 in
  let all = List.concat per_round in
  ( median (List.map fst all),
    median (List.map snd all),
    median
      (List.map (fun pairs -> median (List.map overhead pairs)) per_round) )

let instrumentation_check () =
  Bench_util.heading
    (Printf.sprintf
       "Instrumentation overhead (QS3, Push-up, RDBMS; median of %d \
        alternating rounds)"
       rounds);
  let storage = Datasets.shakespeare_full () in
  let query = Blas.query Bench_queries.qs3 in
  let translator = Blas.Pushup in
  (* The bare path: the storage's memoized plan (as [Blas.run] gets
     it) executed with no tracer, no metrics dereference, no phase
     spans — the pre-instrumentation pipeline — ending, like
     [Blas.run], in the sorted, unique answer starts of the relation's
     one projected column. *)
  let bare () =
    Option.map
      (fun plan ->
        let _, rows = Blas_rel.Executor.run plan in
        List.map (fun t -> Blas_rel.Value.to_int (Blas_rel.Tuple.get t 0)) rows
        |> List.sort_uniq Stdlib.compare)
      (Blas.plan_for storage translator query)
  in
  (* The instrumented path with everything off (the library default). *)
  let disabled () = Blas.run storage ~engine:Blas.Rdbms ~translator query in
  (* Fully on: enabled tracer and a live metrics registry — for scale,
     not gated. *)
  let tracer = Blas_obs.Trace.create () in
  let registry = Blas_obs.Metrics.create () in
  let enabled () =
    Blas.set_metrics (Some registry);
    let r = Blas.run ~tracer storage ~engine:Blas.Rdbms ~translator query in
    Blas.set_metrics None;
    Blas_obs.Trace.clear tracer;
    r
  in
  (* The query cache makes the same claim when bypassed: [~cache:false]
     must price like the uncached pipeline (one option match per run).
     The warm-cache variant is measured for scale, not gated — it
     prices the memo hit path. *)
  let cache_off () =
    Blas.run ~cache:false storage ~engine:Blas.Rdbms ~translator query
  in
  let cache_warm () =
    Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator query
  in
  (* The serving tier makes the same claim for request tracing: a
     TRACE'd request — fresh per-request tracer, lock-wait / cache-probe
     / I/O spans, serialization aside — must stay within the threshold
     of the untraced service path.  Cache off so both variants price a
     real execution, not a memo probe. *)
  let service = Blas_server.Service.create ~cache:false [ ("doc", storage) ] in
  let token = Blas.Par.Token.create ~expired:(fun () -> false) () in
  let serve_plain () =
    Blas_server.Service.query service ~token ~doc:"doc" ~translator
      ~engine:Blas.Rdbms Bench_queries.qs3
  in
  let serve_traced () =
    let tracer = Blas_obs.Trace.create ~enabled:true () in
    Blas_server.Service.query_info service ~token ~tracer ~doc:"doc"
      ~translator ~engine:Blas.Rdbms Bench_queries.qs3
  in
  (* (label, gated, variant, baseline label, baseline) *)
  let run f () = ignore (f ()) in
  let comparisons =
    [
      ("disabled instrumentation", true, run disabled, "bare", run bare);
      ("enabled (tracer+metrics)", false, run enabled, "bare", run bare);
      ("cache-disabled path", true, run cache_off, "bare", run bare);
      ("cache warm (memo hit)", false, run cache_warm, "bare", run bare);
      ( "traced server path",
        true,
        run serve_traced,
        "untraced serve",
        run serve_plain );
    ]
  in
  let results =
    List.map
      (fun (label, gated, variant, base_label, base) ->
        (label, gated, base_label, paired variant base))
      comparisons
  in
  Blas.Cache.clear (Blas.Storage.cache storage);
  Bench_util.print_table
    ~title:"disabled instrumentation, the bypassed cache and tracing must be free"
    {
      Bench_util.header =
        [ "variant"; "ns/query"; "baseline"; "ns/query"; "overhead" ];
      rows =
        List.map
          (fun (label, gated, base_label, (v, b, o)) ->
            [
              label;
              Printf.sprintf "%.0f" v;
              base_label;
              Printf.sprintf "%.0f" b;
              Printf.sprintf "%+.1f%%%s" o
                (if gated then "" else " (not gated)");
            ])
          results;
    };
  if !check_mode then
    List.iter
      (fun (label, gated, base_label, (_, _, o)) ->
        if gated then
          if o > threshold_percent then begin
            Printf.eprintf
              "FAIL: %s costs %+.1f%% over %s (threshold %.1f%%)\n%!" label o
              base_label threshold_percent;
            failed := true
          end
          else
            Printf.printf "OK: %s overhead %+.1f%% over %s <= %.1f%%\n" label o
              base_label threshold_percent)
      results

(* The optimizer's statistics pass makes the same kind of claim: it
   is one pass over the label columns the build already holds, so
   collecting it must add at most {!stats_threshold_percent} to the
   time of an index build from a parsed tree.  Measured on the Shakespeare full-scale document (a build is
   far too long for bechamel's quota) as the fastest of {!stats_rounds}
   builds each way, one of each a round, alternating which goes first.
   A build is timed in process CPU time, which host steal does not
   inflate, and starts after a full major collection, so that no build
   pays the collector's debt of the one before.  A median of a few
   builds moved by more than the bound between runs of the same code
   on a 2-vCPU VM; the fastest build is the one the scheduler
   disturbed least, so the two fastest differ by what collection
   adds. *)
let stats_threshold_percent = 10.0

let stats_rounds = 41

let stats_collection_check () =
  Bench_util.heading "Statistics collection overhead (bulk load, Shakespeare)";
  let tree = Datasets.shakespeare_tree () in
  let time_build collect_stats =
    Gc.full_major ();
    let t0 = Sys.time () in
    ignore (Blas.Storage.of_tree ~collect_stats tree);
    Sys.time () -. t0
  in
  (* (without, with) seconds per round, the order alternating. *)
  let per_round =
    List.init stats_rounds (fun r ->
        if r mod 2 = 0 then
          let bare = time_build false in
          (bare, time_build true)
        else
          let stats = time_build true in
          (time_build false, stats))
  in
  let fastest xs = List.fold_left Float.min Float.infinity xs in
  let bare_s = fastest (List.map fst per_round) in
  let stats_s = fastest (List.map snd per_round) in
  let overhead = (stats_s -. bare_s) /. bare_s *. 100.0 in
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "index build with and without statistics collection (fastest CPU \
          time of %d alternating rounds)"
         stats_rounds)
    {
      Bench_util.header = [ "variant"; "build s"; "overhead" ];
      rows =
        [
          [ "without stats"; Bench_util.seconds bare_s; "-" ];
          [
            "with stats (default)";
            Bench_util.seconds stats_s;
            Printf.sprintf "%+.1f%%" overhead;
          ];
        ];
    };
  if !check_mode then
    if overhead > stats_threshold_percent then begin
      Printf.eprintf
        "FAIL: statistics collection costs %+.1f%% of bulk load (threshold \
         %.1f%%)\n\
         %!"
        overhead stats_threshold_percent;
      failed := true
    end
    else
      Printf.printf "OK: statistics collection overhead %+.1f%% <= %.1f%%\n"
        overhead stats_threshold_percent

let run () =
  instrumentation_check ();
  stats_collection_check ()
