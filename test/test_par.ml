(** Tests for the parallel execution layer: the domain pool itself, the
    determinism guarantee (parallel runs return exactly the sequential
    answers and counter totals), and domain-safety of the shared
    observability and buffer-pool state.

    The jobs levels exercised by the determinism tests default to 2 and
    4 and can be overridden with BLAS_TEST_JOBS=1,2,8 (CI runs the
    suite at several levels). *)

module Pool = Blas_par.Pool

let par_jobs =
  match Sys.getenv_opt "BLAS_TEST_JOBS" with
  | None | Some "" -> [ 2; 4 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* The pool itself                                                    *)

let pool_tests =
  [
    ( "chunks cover the range in order",
      fun () ->
        List.iter
          (fun (lanes, n) ->
            let chunks = Pool.chunks ~lanes n in
            let where = Printf.sprintf "lanes=%d n=%d" lanes n in
            Test_util.check_bool (where ^ ": at most lanes chunks") true
              (List.length chunks <= max lanes 1);
            let covered =
              List.concat_map
                (fun (off, len) -> List.init len (fun i -> off + i))
                chunks
            in
            Test_util.check_int_list (where ^ ": exact cover")
              (List.init n Fun.id) covered;
            let lens = List.map snd chunks in
            List.iter
              (fun l -> Test_util.check_bool (where ^ ": nonempty") true (l > 0))
              lens;
            match lens with
            | [] -> ()
            | _ ->
              let lo = List.fold_left min max_int lens in
              let hi = List.fold_left max 0 lens in
              Test_util.check_bool (where ^ ": near-equal sizes") true
                (hi - lo <= 1))
          [ (1, 10); (4, 10); (8, 3); (3, 0); (5, 5); (2, 101) ] );
    ( "run preserves task order",
      fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        Test_util.check_int "size" 4 (Pool.size pool);
        let results = Pool.run pool (Array.init 100 (fun i -> fun () -> i * i)) in
        Test_util.check_int_list "squares in order"
          (List.init 100 (fun i -> i * i))
          (Array.to_list results) );
    ( "run re-raises task exceptions",
      fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        Alcotest.check_raises "boom" (Failure "boom") (fun () ->
            ignore
              (Pool.run pool
                 (Array.init 50 (fun i ->
                      fun () -> if i = 37 then failwith "boom" else i))));
        (* The pool survives a failed batch. *)
        let r = Pool.run pool (Array.init 8 (fun i -> fun () -> i + 1)) in
        Test_util.check_int_list "usable after failure"
          (List.init 8 (fun i -> i + 1))
          (Array.to_list r) );
    ( "nested run degrades to inline execution",
      fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        let results =
          Pool.run pool
            (Array.init 4 (fun i ->
                 fun () ->
                   Array.fold_left ( + ) 0
                     (Pool.run pool (Array.init 8 (fun j -> fun () -> i + j)))))
        in
        Test_util.check_int_list "nested sums"
          (List.init 4 (fun i -> (8 * i) + 28))
          (Array.to_list results) );
    ( "map and map_list preserve order; both returns both",
      fun () ->
        Pool.with_pool ~domains:3 @@ fun pool ->
        let doubled = Pool.map pool (fun x -> 2 * x) (Array.init 20 Fun.id) in
        Test_util.check_int_list "map"
          (List.init 20 (fun i -> 2 * i))
          (Array.to_list doubled);
        Test_util.check_int_list "map_list"
          [ 1; 4; 9 ]
          (Pool.map_list pool (fun x -> x * x) [ 1; 2; 3 ]);
        let a, b = Pool.both pool (fun () -> "left") (fun () -> 42) in
        Test_util.check_string "both left" "left" a;
        Test_util.check_int "both right" 42 b );
    ( "degenerate pools run inline",
      fun () ->
        Pool.with_pool ~domains:0 @@ fun pool ->
        Test_util.check_int "clamped to one lane" 1 (Pool.size pool);
        Test_util.check_int_list "still correct"
          [ 0; 1; 2 ]
          (Array.to_list (Pool.run pool (Array.init 3 (fun i -> fun () -> i))));
        Pool.shutdown pool;
        (* shutdown is idempotent, and a stopped pool still evaluates. *)
        Pool.shutdown pool;
        Test_util.check_int_list "after shutdown"
          [ 7 ]
          (Array.to_list (Pool.run pool [| (fun () -> 7) |])) );
    ( "cancellation stops a fan-out at the next task boundary",
      fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        let token = Pool.Token.create () in
        let executed = Atomic.make 0 in
        let total = 2_000 in
        (* Cancel once a few tasks have run: the batch must stop at a
           task boundary — far short of the full fan-out — and re-raise
           Cancelled on the caller. *)
        (try
           ignore
             (Pool.run_cancellable pool ~token
                (Array.init total (fun _ ->
                     fun () ->
                       if Atomic.fetch_and_add executed 1 = 10 then
                         Pool.Token.cancel token;
                       Thread.delay 0.0002)));
           Alcotest.fail "expected Cancelled"
         with Pool.Cancelled -> ());
        Test_util.check_bool "stopped well short of the fan-out" true
          (Atomic.get executed < total / 2);
        (* An expired-predicate token (the deadline path) behaves the
           same, and the pool survives a cancelled batch. *)
        let expired = Pool.Token.create ~expired:(fun () -> true) () in
        (try
           ignore (Pool.run_cancellable pool ~token:expired [| (fun () -> ()) |]);
           Alcotest.fail "expected Cancelled from expiry"
         with Pool.Cancelled -> ());
        Test_util.check_int_list "pool usable after cancellation"
          [ 1; 2 ]
          (Array.to_list
             (Pool.run_cancellable pool ~token:(Pool.Token.create ())
                [| (fun () -> 1); (fun () -> 2) |])) );
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: parallel == sequential on the Figure 10 queries       *)

(* The nine hand-written queries of the paper's Figure 10, over small
   instances of the matching generated datasets (same table as the
   observability reconciliation tests). *)
let fig10 =
  [
    ( "shakespeare",
      lazy (Blas.index_of_tree (Blas_datagen.Shakespeare.generate ~plays:1 ())),
      [
        ("QS1", "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE");
        ("QS2", "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR");
        ( "QS3",
          "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public \
           place.\"]//LINE" );
      ] );
    ( "protein",
      lazy (Blas.index_of_tree (Blas_datagen.Protein.generate ~entries:40 ())),
      [
        ("QP1", "/ProteinDatabase/ProteinEntry/protein/name");
        ( "QP2",
          "/ProteinDatabase/ProteinEntry//authors/author = \"Daniel, M.\"" );
        ( "QP3",
          "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and \
           year]]/protein/name" );
      ] );
    ( "auction",
      lazy (Blas.index_of_tree (Blas_datagen.Auction.generate ~scale:5 ())),
      [
        ("QA1", "//category/description/parlist/listitem");
        ("QA2", "/site/regions//item/description");
        ("QA3", "/site/regions/asia/item[shipping]/description");
      ] );
  ]

let translators = [ Blas.Split; Blas.Pushup; Blas.Unfold ]

let engines = [ Blas.Rdbms; Blas.Twig ]

(* Every counter except page_reads, which depends on how the chunks
   interleave their buffer-pool requests (a hit for the sequential run
   can be a concurrent miss and vice versa). *)
let check_counters where (sc : Blas_rel.Counters.t) (pc : Blas_rel.Counters.t) =
  Test_util.check_int (where ^ ": tuples_read") sc.Blas_rel.Counters.tuples_read
    pc.Blas_rel.Counters.tuples_read;
  Test_util.check_int (where ^ ": index_seeks") sc.Blas_rel.Counters.index_seeks
    pc.Blas_rel.Counters.index_seeks;
  Test_util.check_int (where ^ ": djoins") sc.Blas_rel.Counters.djoins
    pc.Blas_rel.Counters.djoins;
  Test_util.check_int (where ^ ": theta_joins") sc.Blas_rel.Counters.theta_joins
    pc.Blas_rel.Counters.theta_joins;
  Test_util.check_int (where ^ ": intermediate") sc.Blas_rel.Counters.intermediate
    pc.Blas_rel.Counters.intermediate;
  Test_util.check_int (where ^ ": page_requests")
    sc.Blas_rel.Counters.page_requests pc.Blas_rel.Counters.page_requests;
  Test_util.check_int (where ^ ": page_writes") sc.Blas_rel.Counters.page_writes
    pc.Blas_rel.Counters.page_writes

let determinism_tests =
  List.map
    (fun (dataset, storage, queries) ->
      ( Printf.sprintf "%s: parallel runs match sequential" dataset,
        fun () ->
          let storage = Lazy.force storage in
          List.iter
            (fun jobs ->
              Pool.with_pool ~domains:jobs @@ fun pool ->
              List.iter
                (fun (qname, qs) ->
                  let query = Blas.query qs in
                  List.iter
                    (fun translator ->
                      List.iter
                        (fun engine ->
                          let where =
                            Printf.sprintf "%s %s/%s -j %d" qname
                              (Blas.translator_name translator)
                              (Blas.engine_name engine)
                              jobs
                          in
                          let seq =
                            Blas.run storage ~engine ~translator query
                          in
                          let par =
                            Blas.run ~pool storage ~engine ~translator query
                          in
                          Test_util.check_int_list (where ^ ": starts")
                            seq.Blas.starts par.Blas.starts;
                          Test_util.check_int (where ^ ": visited")
                            seq.Blas.visited par.Blas.visited;
                          Test_util.check_int (where ^ ": plan djoins")
                            seq.Blas.plan_djoins par.Blas.plan_djoins;
                          check_counters where seq.Blas.counters
                            par.Blas.counters)
                        engines)
                    translators)
                queries;
              (* Batched multi-query workloads fan out too. *)
              let batch = List.map (fun (_, qs) -> Blas.query qs) queries in
              List.iter
                (fun engine ->
                  let where =
                    Printf.sprintf "union batch %s -j %d"
                      (Blas.engine_name engine) jobs
                  in
                  let seq =
                    Blas.run_union storage ~engine ~translator:Blas.Pushup batch
                  in
                  let par =
                    Blas.run_union ~pool storage ~engine ~translator:Blas.Pushup
                      batch
                  in
                  Test_util.check_int_list (where ^ ": starts") seq.Blas.starts
                    par.Blas.starts;
                  Test_util.check_int (where ^ ": visited") seq.Blas.visited
                    par.Blas.visited;
                  check_counters where seq.Blas.counters par.Blas.counters)
                engines)
            par_jobs ) )
    fig10

(* One pool shared by every generated case: spawning domains per qcheck
   case would dominate the test's runtime. *)
let shared_pool =
  lazy
    (let pool = Pool.create ~domains:3 in
     at_exit (fun () -> Pool.shutdown pool);
     pool)

let parallel_equals_sequential_prop =
  let gen = QCheck2.Gen.pair Test_util.doc_gen (Test_util.query_gen ()) in
  Test_util.qtest ~count:60 "parallel run equals sequential run" gen
    (fun (tree, q) ->
      let storage = Blas.index_of_tree tree in
      let pool = Lazy.force shared_pool in
      List.for_all
        (fun engine ->
          List.for_all
            (fun translator ->
              let seq = Blas.run storage ~engine ~translator q in
              let par = Blas.run ~pool storage ~engine ~translator q in
              seq.Blas.starts = par.Blas.starts
              && seq.Blas.visited = par.Blas.visited)
            [ Blas.Split; Blas.Pushup ])
        [ Blas.Rdbms; Blas.Twig ])

(* ------------------------------------------------------------------ *)
(* Domain-safety of shared state                                      *)

let stress_tests =
  [
    ( "metrics registry is domain-safe",
      fun () ->
        let open Blas_obs in
        let reg = Metrics.create () in
        let c = Metrics.counter reg "stress.count" in
        let h = Metrics.histogram reg "stress.latency" in
        let iters = 5_000 in
        Pool.with_pool ~domains:4 @@ fun pool ->
        ignore
          (Pool.run pool
             (Array.init 8 (fun k ->
                  fun () ->
                    for i = 1 to iters do
                      Metrics.incr c;
                      Metrics.observe h (float_of_int ((i mod 100) + k + 1))
                    done)));
        Test_util.check_int "counter total" (8 * iters)
          (Metrics.counter_value c);
        Test_util.check_int "histogram count" (8 * iters) (Metrics.hist_count h);
        (* Concurrent registration of colliding names yields one cell. *)
        ignore
          (Pool.map pool
             (fun i ->
               let c = Metrics.counter reg (Printf.sprintf "c%d" (i mod 4)) in
               Metrics.incr c)
             (Array.init 32 Fun.id));
        List.iter
          (fun i ->
            Test_util.check_int
              (Printf.sprintf "c%d total" i)
              8
              (Metrics.counter_value
                 (Metrics.counter reg (Printf.sprintf "c%d" i))))
          [ 0; 1; 2; 3 ];
        (* Exporters run against the post-stress registry. *)
        ignore (Metrics.to_json reg);
        ignore (Format.asprintf "%a" Metrics.pp reg) );
    ( "tracer is domain-safe",
      fun () ->
        let open Blas_obs in
        let tracer = Trace.create () in
        let tasks = 64 in
        Pool.with_pool ~domains:4 @@ fun pool ->
        ignore
          (Pool.run pool
             (Array.init tasks (fun i ->
                  fun () ->
                    Trace.with_span tracer "outer" (fun () ->
                        Trace.with_span tracer "inner" (fun () -> i)))));
        let roots = Trace.roots tracer in
        Test_util.check_int "one root per task" tasks (List.length roots);
        List.iter
          (fun (r : Trace.span) ->
            Test_util.check_string "root name" "outer" r.Trace.name;
            match Trace.children r with
            | [ child ] ->
              Test_util.check_string "child name" "inner" child.Trace.name
            | kids ->
              Alcotest.failf "expected one child, got %d" (List.length kids))
          roots;
        ignore (Trace.to_json tracer) );
    ( "striped buffer pool is domain-safe",
      fun () ->
        let open Blas_rel in
        let bp =
          Buffer_pool.create_striped ~stripes:4 ~capacity:16
            Test_util.empty_backing
        in
        Test_util.check_int "stripes" 4 (Buffer_pool.stripe_count bp);
        Test_util.check_int "capacity" 16 (Buffer_pool.capacity bp);
        let per = 2_000 in
        Pool.with_pool ~domains:4 @@ fun pool ->
        ignore
          (Pool.run pool
             (Array.init 4 (fun k ->
                  fun () ->
                    for i = 0 to per - 1 do
                      ignore
                        (Buffer_pool.get bp ~table:"t"
                           ~page:(i * (k + 1) mod 64))
                    done)));
        Test_util.check_int "every request counted" (4 * per)
          (Buffer_pool.requests bp);
        Test_util.check_bool "resident bounded by capacity" true
          (Buffer_pool.resident bp <= 16);
        Test_util.check_bool "misses bounded by requests" true
          (Buffer_pool.misses bp <= Buffer_pool.requests bp);
        Test_util.check_bool "cold pages actually missed" true
          (Buffer_pool.misses bp >= 16) );
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    (pool_tests @ determinism_tests @ stress_tests)
  @ [ parallel_equals_sequential_prop ]
