(** Repeated-workload cache benchmark.

    The paper's figures all measure single cold runs; real query mixes
    repeat.  This section replays the Figure 10 queries on both engines
    — each query timed over {!repetitions} repetitions cold (cache
    bypassed) and warm (cache enabled, primed by one run) — and reports
    the speedup plus the cache traffic the warm runs generated.  Warm
    answers are checked against the cold ones on every query; a
    mismatch aborts the bench.

    Warm suffix-path runs are whole-query memo hits (zero I/O), so the
    speedup column is the headline number of the semantic-cache PR; the
    table lands in BENCH_results.json under section [cache] with
    [--json]. *)

let repetitions = 5

let datasets () =
  [
    ("shakespeare", Datasets.shakespeare_full (), Bench_queries.shakespeare);
    ("protein", Datasets.protein_full (), Bench_queries.protein);
    ("auction", Datasets.auction_full (), Bench_queries.auction);
  ]

let run () =
  Bench_util.heading
    "Semantic query cache (repeated Figure 10 workload, Push-up)";
  let translator = Blas.Pushup in
  List.iter
    (fun (engine, ename) ->
      let total_cold = ref 0. and total_warm = ref 0. in
      let rows =
        List.concat_map
          (fun (dname, storage, queries) ->
            (* Each engine starts from a cold cache so its hit counts
               are its own. *)
            Blas.Cache.clear (Blas.Storage.cache storage);
            List.map
              (fun (qn, qs) ->
                let q = Blas.query qs in
                let answers ~cache () =
                  (Blas.run ~cache storage ~engine ~translator q).Blas.starts
                in
                let cold_answers, t_cold =
                  Bench_util.measure ~repetitions (answers ~cache:false)
                in
                let before = Blas.Cache.stats (Blas.Storage.cache storage) in
                let primed = answers ~cache:true () in
                let warm_answers, t_warm =
                  Bench_util.measure ~repetitions (answers ~cache:true)
                in
                if cold_answers <> warm_answers || cold_answers <> primed then
                  failwith
                    (Printf.sprintf
                       "cache bench: warm answers diverge from cold on %s %s"
                       dname qn);
                let delta =
                  Blas.Cache.diff_stats ~before
                    ~after:(Blas.Cache.stats (Blas.Storage.cache storage))
                in
                let tot : Blas_cache.Stats.snapshot =
                  Blas.Cache.totals delta
                in
                total_cold := !total_cold +. t_cold;
                total_warm := !total_warm +. t_warm;
                [
                  Printf.sprintf "%s %s" dname qn;
                  Bench_util.seconds t_cold;
                  Bench_util.seconds t_warm;
                  Printf.sprintf "%.1fx" (t_cold /. Float.max t_warm 1e-9);
                  string_of_int tot.hits;
                  Printf.sprintf "%.0f%%" (100. *. Blas.Cache.hit_rate delta);
                ])
              queries)
          (datasets ())
      in
      let rows =
        rows
        @ [
            [
              "total";
              Bench_util.seconds !total_cold;
              Bench_util.seconds !total_warm;
              Printf.sprintf "%.1fx"
                (!total_cold /. Float.max !total_warm 1e-9);
              "";
              "";
            ];
          ]
      in
      Bench_util.print_table
        ~title:
          (Printf.sprintf
             "warm vs cold, %d repetitions per query (%s engine)" repetitions
             ename)
        {
          Bench_util.header =
            [ "query"; "cold (s)"; "warm (s)"; "speedup"; "hits"; "hit rate" ];
          rows;
        })
    [ (Blas.Rdbms, "RDBMS"); (Blas.Twig, "TwigJoin") ]
