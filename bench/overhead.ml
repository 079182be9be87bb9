(** Instrumentation overhead check.

    The observability layer claims to be zero-cost when disabled: a run
    with the default no-op tracer and no metrics sink should time the
    same as the bare engine path with no instrumentation entry points.
    This section measures both with bechamel (OLS over the monotonic
    clock) on the Figure 13a headline query (QS3, Push-up, RDBMS) and
    reports the relative overhead; with {!check_mode} (the CI gate,
    [overhead --check]) an overhead above {!threshold_percent} marks the
    run failed.  An enabled tracer + registry is measured too, for
    scale.

    The parallel layer makes the same claim for [-j 1]: a run routed
    through a single-lane pool must cost within {!threshold_percent} of
    the direct sequential run (the pool dispatches inline with no
    synchronization), and [--check] gates that too. *)

open Bechamel

(* Set by main's --check flag; failures are deferred to [failed] so the
   harness can still write BENCH_results.json before exiting non-zero. *)
let check_mode = ref false

let failed = ref false

let threshold_percent = 5.0

let estimates tests =
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:None () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"overhead" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let out = ref [] in
  Hashtbl.iter
    (fun test_name result ->
      match Analyze.OLS.estimates result with
      | Some [ e ] -> out := (test_name, e) :: !out
      | _ -> ())
    results;
  !out

let find name results =
  List.find_map
    (fun (n, e) ->
      (* Bechamel names tests "overhead/<name>". *)
      let suffix = "/" ^ name in
      let nl = String.length n and sl = String.length suffix in
      if nl >= sl && String.equal (String.sub n (nl - sl) sl) suffix then Some e
      else None)
    results

let instrumentation_check () =
  Bench_util.heading
    "Instrumentation overhead (QS3, Push-up, RDBMS; bechamel OLS)";
  let storage = Datasets.shakespeare_full () in
  let query = Blas.query Bench_queries.qs3 in
  let translator = Blas.Pushup in
  (* The bare path: translate, compile and execute with no tracer, no
     metrics dereference, no phase spans — the pre-instrumentation
     pipeline. *)
  let bare =
    Test.make ~name:"bare"
      (Staged.stage (fun () ->
           Option.map
             (fun sql ->
               Blas_rel.Executor.run
                 (Blas_rel.Sql_compile.compile
                    ~catalog:(Blas.Storage.catalog storage) sql))
             (Blas.sql_for storage translator query)))
  in
  (* The instrumented path with everything off (the library default). *)
  let disabled =
    Test.make ~name:"disabled"
      (Staged.stage (fun () ->
           Blas.run storage ~engine:Blas.Rdbms ~translator query))
  in
  (* Fully on: enabled tracer and a live metrics registry — for scale,
     not gated. *)
  let tracer = Blas_obs.Trace.create () in
  let registry = Blas_obs.Metrics.create () in
  let enabled =
    Test.make ~name:"enabled"
      (Staged.stage (fun () ->
           Blas.set_metrics (Some registry);
           let r = Blas.run ~tracer storage ~engine:Blas.Rdbms ~translator query in
           Blas.set_metrics None;
           Blas_obs.Trace.clear tracer;
           r))
  in
  (* The -j 1 path: same run, routed through a single-lane pool.  The
     pool must dispatch inline, so this prices the option plumbing and
     the lane checks, not synchronization. *)
  let pool = Blas.Par.create ~domains:1 in
  let pool_j1 =
    Test.make ~name:"pool-j1"
      (Staged.stage (fun () ->
           Blas.run ~pool storage ~engine:Blas.Rdbms ~translator query))
  in
  (* The query cache makes the same claim when bypassed: [~cache:false]
     must price like the uncached pipeline (one option match per run).
     The warm-cache variant is measured for scale, not gated — it
     prices the memo hit path. *)
  let cache_off =
    Test.make ~name:"cache-off"
      (Staged.stage (fun () ->
           Blas.run ~cache:false storage ~engine:Blas.Rdbms ~translator query))
  in
  let cache_warm =
    Test.make ~name:"cache-warm"
      (Staged.stage (fun () ->
           Blas.run ~cache:true storage ~engine:Blas.Rdbms ~translator query))
  in
  (* The serving tier makes the same claim for request tracing: a
     TRACE'd request — fresh per-request tracer, lock-wait / cache-probe
     / I/O spans, serialization aside — must stay within the threshold
     of the untraced service path.  Cache off so both variants price a
     real execution, not a memo probe. *)
  let service = Blas_server.Service.create ~cache:false [ ("doc", storage) ] in
  let token = Blas.Par.Token.create ~expired:(fun () -> false) () in
  let serve_plain =
    Test.make ~name:"serve-plain"
      (Staged.stage (fun () ->
           Blas_server.Service.query service ~token ~doc:"doc" ~translator
             ~engine:Blas.Rdbms Bench_queries.qs3))
  in
  let serve_traced =
    Test.make ~name:"serve-traced"
      (Staged.stage (fun () ->
           let tracer = Blas_obs.Trace.create ~enabled:true () in
           Blas_server.Service.query_info service ~token ~tracer ~doc:"doc"
             ~translator ~engine:Blas.Rdbms Bench_queries.qs3))
  in
  let results =
    estimates
      [
        bare;
        disabled;
        enabled;
        pool_j1;
        cache_off;
        cache_warm;
        serve_plain;
        serve_traced;
      ]
  in
  Blas.Par.shutdown pool;
  Blas.Cache.clear (Blas.Storage.cache storage);
  match (find "bare" results, find "disabled" results, find "enabled" results) with
  | Some bare_ns, Some disabled_ns, enabled_ns ->
    let pool_ns = find "pool-j1" results in
    let overhead = (disabled_ns -. bare_ns) /. bare_ns *. 100.0 in
    let pool_overhead =
      Option.map (fun p -> (p -. disabled_ns) /. disabled_ns *. 100.0) pool_ns
    in
    let cache_off_ns = find "cache-off" results in
    let cache_warm_ns = find "cache-warm" results in
    let cache_overhead =
      Option.map (fun c -> (c -. bare_ns) /. bare_ns *. 100.0) cache_off_ns
    in
    let serve_plain_ns = find "serve-plain" results in
    let serve_traced_ns = find "serve-traced" results in
    let traced_overhead =
      match (serve_plain_ns, serve_traced_ns) with
      | Some p, Some tr -> Some ((tr -. p) /. p *. 100.0)
      | _ -> None
    in
    Bench_util.print_table
      ~title:"disabled instrumentation and the -j 1 pool must be free"
      {
        Bench_util.header = [ "variant"; "ns/query"; "overhead" ];
        rows =
          [
            [ "bare (no instrumentation)"; Printf.sprintf "%.0f" bare_ns; "-" ];
            [
              "disabled (default)";
              Printf.sprintf "%.0f" disabled_ns;
              Printf.sprintf "%+.1f%%" overhead;
            ];
            [
              "enabled (tracer+metrics)";
              (match enabled_ns with
              | Some e -> Printf.sprintf "%.0f" e
              | None -> "-");
              (match enabled_ns with
              | Some e -> Printf.sprintf "%+.1f%%" ((e -. bare_ns) /. bare_ns *. 100.0)
              | None -> "-");
            ];
            [
              "pool -j 1 (vs disabled)";
              (match pool_ns with
              | Some p -> Printf.sprintf "%.0f" p
              | None -> "-");
              (match pool_overhead with
              | Some po -> Printf.sprintf "%+.1f%%" po
              | None -> "-");
            ];
            [
              "cache off (forced)";
              (match cache_off_ns with
              | Some c -> Printf.sprintf "%.0f" c
              | None -> "-");
              (match cache_overhead with
              | Some co -> Printf.sprintf "%+.1f%%" co
              | None -> "-");
            ];
            [
              "cache warm (memo hit)";
              (match cache_warm_ns with
              | Some c -> Printf.sprintf "%.0f" c
              | None -> "-");
              (match cache_warm_ns with
              | Some c -> Printf.sprintf "%.2fx bare" (c /. bare_ns)
              | None -> "-");
            ];
            [
              "serve (untraced)";
              (match serve_plain_ns with
              | Some p -> Printf.sprintf "%.0f" p
              | None -> "-");
              "-";
            ];
            [
              "serve traced (vs untraced)";
              (match serve_traced_ns with
              | Some tr -> Printf.sprintf "%.0f" tr
              | None -> "-");
              (match traced_overhead with
              | Some o -> Printf.sprintf "%+.1f%%" o
              | None -> "-");
            ];
          ];
      };
    if !check_mode then begin
      if overhead > threshold_percent then begin
        Printf.eprintf
          "FAIL: disabled instrumentation costs %+.1f%% (threshold %.1f%%)\n%!"
          overhead threshold_percent;
        failed := true
      end
      else
        Printf.printf "OK: disabled overhead %+.1f%% <= %.1f%%\n" overhead
          threshold_percent;
      (match pool_overhead with
      | Some po when po > threshold_percent ->
        Printf.eprintf
          "FAIL: -j 1 pool costs %+.1f%% over sequential (threshold %.1f%%)\n%!"
          po threshold_percent;
        failed := true
      | Some po ->
        Printf.printf "OK: -j 1 pool overhead %+.1f%% <= %.1f%%\n" po
          threshold_percent
      | None ->
        Printf.eprintf "overhead: no pool-j1 estimate\n%!";
        failed := true);
      (match cache_overhead with
      | Some co when co > threshold_percent ->
        Printf.eprintf
          "FAIL: cache-disabled path costs %+.1f%% over bare (threshold \
           %.1f%%)\n\
           %!"
          co threshold_percent;
        failed := true
      | Some co ->
        Printf.printf "OK: cache-disabled overhead %+.1f%% <= %.1f%%\n" co
          threshold_percent
      | None ->
        Printf.eprintf "overhead: no cache-off estimate\n%!";
        failed := true);
      match traced_overhead with
      | Some o when o > threshold_percent ->
        Printf.eprintf
          "FAIL: traced server path costs %+.1f%% over untraced (threshold \
           %.1f%%)\n\
           %!"
          o threshold_percent;
        failed := true
      | Some o ->
        Printf.printf "OK: traced server path overhead %+.1f%% <= %.1f%%\n" o
          threshold_percent
      | None ->
        Printf.eprintf "overhead: no serve-plain/serve-traced estimate\n%!";
        failed := true
    end
  | _ ->
    Printf.eprintf "overhead: bechamel produced no estimates\n%!";
    if !check_mode then failed := true

(* The optimizer's statistics pass makes the same kind of claim: it
   rides the bulk load's existing pass over the nodes, so collecting it
   must add at most {!stats_threshold_percent} to index-build wall
   time.  Measured on the Shakespeare full-scale document, mean of a
   few whole builds (a build is far too long for bechamel's quota). *)
let stats_threshold_percent = 10.0

let stats_collection_check () =
  Bench_util.heading "Statistics collection overhead (bulk load, Shakespeare)";
  let doc = Blas_xpath.Doc.of_tree (Datasets.shakespeare_tree ()) in
  let time_build ~collect_stats =
    snd
      (Bench_util.measure ~repetitions:5 (fun () ->
           Blas.Storage.of_doc ~collect_stats doc))
  in
  let bare_s = time_build ~collect_stats:false in
  let stats_s = time_build ~collect_stats:true in
  let overhead = (stats_s -. bare_s) /. bare_s *. 100.0 in
  Bench_util.print_table
    ~title:"index build with and without statistics collection"
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
