(** Tests for parallelism between requests: several domains querying
    one shared storage at once get exactly the answers and counter
    totals of a sequential run, the shared observability and
    buffer-pool state is domain-safe, and the deadline tokens that
    carry cancellation fire.

    The domain counts exercised by the concurrent-run tests default to
    2 and 4 and can be overridden with BLAS_TEST_JOBS=1,2,8 (CI runs the
    suite at several levels). *)

let par_jobs =
  match Sys.getenv_opt "BLAS_TEST_JOBS" with
  | None | Some "" -> [ 2; 4 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* Cancellation tokens                                                *)

let token_tests =
  [
    ( "cancellation tokens fire explicitly and on expiry",
      fun () ->
        let module Token = Blas.Par.Token in
        let token = Token.create () in
        Test_util.check_bool "fresh token" false (Token.cancelled token);
        Token.check token;
        Token.cancel token;
        Test_util.check_bool "cancelled" true (Token.cancelled token);
        Alcotest.check_raises "check raises" Blas.Par.Cancelled (fun () ->
            Token.check token);
        let expired = Token.create ~expired:(fun () -> true) () in
        Alcotest.check_raises "expiry raises" Blas.Par.Cancelled (fun () ->
            Token.check expired);
        (* A cancelled run stops at an operator boundary and raises. *)
        let storage = Blas.index "<r><a><b/></a><a><b/></a></r>" in
        Alcotest.check_raises "run stops" Blas.Par.Cancelled (fun () ->
            ignore
              (Blas.run
                 ~cancel:(fun () -> Token.check token)
                 storage ~engine:Blas.Rdbms ~translator:Blas.Pushup
                 (Blas.query "//a/b")));
        Test_util.check_bool "none never fires" false
          (Token.cancelled Token.none) );
  ]

(* ------------------------------------------------------------------ *)
(* Concurrent requests == sequential runs on the Figure 10 queries    *)

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

let translators = [ Blas.Split; Blas.Pushup; Blas.Unfold; Blas.Auto2 ]

let engines = [ Blas.Rdbms; Blas.Twig ]

(* Every counter except page_reads, which depends on how the concurrent
   runs interleave their buffer-pool requests (a hit for the sequential
   run can be a concurrent miss and vice versa). *)
let same_counters (a : Blas_rel.Counters.t) (b : Blas_rel.Counters.t) =
  let open Blas_rel.Counters in
  a.tuples_read = b.tuples_read
  && a.index_seeks = b.index_seeks
  && a.djoins = b.djoins
  && a.theta_joins = b.theta_joins
  && a.intermediate = b.intermediate
  && a.page_requests = b.page_requests
  && a.page_writes = b.page_writes

(* [concurrent_mismatches ~domains storage cases] runs every [(name,
   run)] case sequentially, then all of them again on [domains] domains
   at once, each domain taking the cases in a different rotation so
   different queries overlap; returns the names whose concurrent report
   differs from the sequential one in answers, visited count, plan
   D-joins or counters. *)
let concurrent_mismatches ~domains cases =
  let expected = List.map (fun (name, run) -> (name, run ())) cases in
  let n = List.length cases in
  Test_util.on_domains domains (fun d ->
      List.init n (fun i ->
          let name, run = List.nth cases ((i + (d * n / domains)) mod n) in
          (name, run ())))
  |> List.concat
  |> List.filter_map (fun (name, (r : Blas.report)) ->
         let (e : Blas.report) = List.assoc name expected in
         if
           e.Blas.starts = r.Blas.starts
           && e.Blas.visited = r.Blas.visited
           && e.Blas.plan_djoins = r.Blas.plan_djoins
           && same_counters e.Blas.counters r.Blas.counters
         then None
         else Some name)

let concurrent_tests =
  List.map
    (fun (dataset, storage, queries) ->
      ( Printf.sprintf "%s: parallel runs match sequential" dataset,
        fun () ->
          let storage = Lazy.force storage in
          let cases =
            List.concat_map
              (fun (qname, qs) ->
                let query = Blas.query qs in
                List.concat_map
                  (fun translator ->
                    List.map
                      (fun engine ->
                        ( Printf.sprintf "%s %s/%s" qname
                            (Blas.translator_name translator)
                            (Blas.engine_name engine),
                          fun () ->
                            Blas.run ~cache:false storage ~engine ~translator
                              query ))
                      engines)
                  translators)
              queries
            (* A union batch per engine rides along. *)
            @ List.map
                (fun engine ->
                  ( "union batch " ^ Blas.engine_name engine,
                    fun () ->
                      Blas.run_union ~cache:false storage ~engine
                        ~translator:Blas.Pushup
                        (List.map (fun (_, qs) -> Blas.query qs) queries) ))
                engines
          in
          List.iter
            (fun domains ->
              match concurrent_mismatches ~domains cases with
              | [] -> ()
              | bad ->
                Alcotest.failf "%d domains: %s differ from sequential" domains
                  (String.concat ", " bad))
            par_jobs ) )
    fig10

let parallel_equals_sequential_prop =
  let gen = QCheck2.Gen.pair Test_util.doc_gen (Test_util.query_gen ()) in
  Test_util.qtest ~count:60 "parallel run equals sequential run" gen
    (fun (tree, q) ->
      Test_util.with_storage (Blas.index_of_tree tree) @@ fun storage ->
      let cases =
        List.concat_map
          (fun engine ->
            List.map
              (fun translator ->
                ( Blas.translator_name translator ^ "/" ^ Blas.engine_name engine,
                  fun () -> Blas.run ~cache:false storage ~engine ~translator q ))
              [ Blas.Split; Blas.Pushup ])
          engines
      in
      concurrent_mismatches ~domains:2 cases = [])

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
        ignore
          (Test_util.on_domains 4 (fun k ->
               for i = 1 to 2 * iters do
                 Metrics.incr c;
                 Metrics.observe h (float_of_int ((i mod 100) + k + 1))
               done));
        Test_util.check_int "counter total" (8 * iters)
          (Metrics.counter_value c);
        Test_util.check_int "histogram count" (8 * iters) (Metrics.hist_count h);
        (* Concurrent registration of colliding names yields one cell. *)
        ignore
          (Test_util.on_domains 4 (fun d ->
               for i = 0 to 7 do
                 let name = Printf.sprintf "c%d" ((d + i) mod 4) in
                 Metrics.incr (Metrics.counter reg name)
               done));
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
        let per_domain = 16 in
        ignore
          (Test_util.on_domains 4 (fun d ->
               for i = 1 to per_domain do
                 Trace.with_span tracer "outer" (fun () ->
                     Trace.with_span tracer "inner" (fun () -> ignore (d + i)))
               done));
        let roots = Trace.roots tracer in
        Test_util.check_int "one root per span" (4 * per_domain)
          (List.length roots);
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
        ignore
          (Test_util.on_domains 4 (fun k ->
               for i = 0 to per - 1 do
                 ignore
                   (Buffer_pool.get bp ~table:"t" ~page:(i * (k + 1) mod 64))
               done));
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
    (token_tests @ concurrent_tests @ stress_tests)
  @ [ parallel_equals_sequential_prop ]
