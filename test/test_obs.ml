(** Observability tests: histogram bucketing and percentiles, span
    nesting, the metrics registry, the JSON encoder, and the EXPLAIN
    ANALYZE reconciliation invariant — on every Figure 10 query, the
    per-node [self] stats of the annotated plan tree must sum exactly
    to the run's global counters, under every translator and engine. *)

module Metrics = Blas_obs.Metrics
module Trace = Blas_obs.Trace
module Analyze = Blas_obs.Analyze
module Json = Blas_obs.Json
module Expo = Blas_obs.Expo
module Slowlog = Blas_obs.Slowlog
module Timeseries = Blas_obs.Timeseries

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)

let hist_tests =
  [
    ( "count, sum and mean track observations",
      fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r "t" in
        List.iter (Metrics.observe h) [ 1.0; 10.0; 100.0; 1000.0 ];
        Test_util.check_int "count" 4 (Metrics.hist_count h);
        Alcotest.(check (float 1e-9)) "sum" 1111.0 (Metrics.hist_sum h);
        Alcotest.(check (float 1e-9)) "mean" 277.75 (Metrics.hist_mean h) );
    ( "percentiles are bucket-accurate",
      fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r "lat" in
        for i = 1 to 1000 do
          Metrics.observe h (float_of_int i)
        done;
        (* Four buckets per decade: successive bounds differ by a factor
           of 10^(1/4) ~ 1.78; an estimate is within one ratio. *)
        let ratio = 10.0 ** 0.25 in
        let check_p p exact =
          let got = Metrics.percentile h p in
          Test_util.check_bool
            (Printf.sprintf "p%g: %g within a bucket of %g" p got exact)
            true
            (got >= exact /. ratio && got <= exact *. ratio)
        in
        check_p 50.0 500.0;
        check_p 95.0 950.0;
        check_p 99.0 990.0 );
    ( "percentiles clamp to the observed range",
      fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r "clamp" in
        List.iter (Metrics.observe h) [ 42.0; 43.0; 44.0 ];
        Test_util.check_bool "p1 >= min" true (Metrics.percentile h 1.0 >= 42.0);
        Test_util.check_bool "p100 <= max" true
          (Metrics.percentile h 100.0 <= 44.0) );
    ( "empty histogram reports nan",
      fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r "empty" in
        Test_util.check_bool "nan" true
          (Float.is_nan (Metrics.percentile h 50.0)) );
    ( "out-of-decade values still land in a bucket",
      fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r "edge" in
        List.iter (Metrics.observe h) [ 0.0; 1e20 ];
        Test_util.check_int "count" 2 (Metrics.hist_count h);
        Test_util.check_bool "p100 finite or clamped" true
          (Metrics.percentile h 100.0 <= 1e20) );
  ]

(* ------------------------------------------------------------------ *)
(* Registry: counters, gauges, labels                                 *)

let registry_tests =
  [
    ( "counters accumulate and resolve by name + labels",
      fun () ->
        let r = Metrics.create () in
        let c = Metrics.counter r "queries" in
        Metrics.incr c;
        Metrics.add c 4;
        Test_util.check_int "value" 5 (Metrics.counter_value c);
        let again = Metrics.counter r "queries" in
        Metrics.incr again;
        Test_util.check_int "same handle" 6 (Metrics.counter_value c);
        let labelled =
          Metrics.counter r ~labels:[ ("engine", "twig") ] "queries"
        in
        Metrics.incr labelled;
        Test_util.check_int "labels separate series" 6
          (Metrics.counter_value c);
        Test_util.check_int "labelled series" 1 (Metrics.counter_value labelled) );
    ( "gauges keep the last set value",
      fun () ->
        let r = Metrics.create () in
        let g = Metrics.gauge r "pool.pages" in
        Metrics.set g 7.0;
        Metrics.set g 9.0;
        Alcotest.(check (float 0.0)) "value" 9.0 (Metrics.gauge_value g) );
    ( "kind collisions are rejected",
      fun () ->
        let r = Metrics.create () in
        ignore (Metrics.counter r "x");
        Test_util.check_bool "gauge over counter raises" true
          (match Metrics.gauge r "x" with
          | exception Invalid_argument _ -> true
          | _ -> false) );
    ( "clear drops every metric",
      fun () ->
        let r = Metrics.create () in
        let c = Metrics.counter r "n" in
        Metrics.add c 3;
        Metrics.clear r;
        Test_util.check_int "recreated at zero" 0
          (Metrics.counter_value (Metrics.counter r "n")) );
  ]

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

let trace_tests =
  [
    ( "spans nest under the innermost open span",
      fun () ->
        let t = Trace.create () in
        Trace.with_span t "query" (fun () ->
            Trace.with_span t "translate" (fun () -> ());
            Trace.with_span t "execute" (fun () ->
                Trace.with_span t "scan" (fun () -> ())));
        (match Trace.roots t with
        | [ root ] ->
          Test_util.check_string "root" "query" root.Trace.name;
          (match Trace.children root with
          | [ a; b ] ->
            Test_util.check_string "first child" "translate" a.Trace.name;
            Test_util.check_string "second child" "execute" b.Trace.name;
            (match Trace.children b with
            | [ s ] -> Test_util.check_string "grandchild" "scan" s.Trace.name
            | kids ->
              Alcotest.failf "expected 1 grandchild, got %d" (List.length kids))
          | kids -> Alcotest.failf "expected 2 children, got %d" (List.length kids))
        | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
        Trace.with_span t "second" (fun () -> ());
        Test_util.check_int "roots accumulate oldest first" 2
          (List.length (Trace.roots t)) );
    ( "durations are monotone: parent covers children",
      fun () ->
        let t = Trace.create () in
        Trace.with_span t "outer" (fun () ->
            Trace.with_span t "inner" (fun () -> Sys.opaque_identity ()));
        match Trace.roots t with
        | [ outer ] ->
          let inner = List.hd (Trace.children outer) in
          Test_util.check_bool "outer >= inner" true
            (Int64.compare outer.Trace.duration_ns inner.Trace.duration_ns >= 0);
          Test_util.check_bool "non-negative" true
            (Int64.compare inner.Trace.duration_ns 0L >= 0)
        | _ -> Alcotest.fail "expected one root" );
    ( "a span is recorded even when the body raises",
      fun () ->
        let t = Trace.create () in
        (try
           Trace.with_span t "boom" (fun () ->
               Trace.with_span t "inner" (fun () -> ());
               failwith "bang")
         with Failure _ -> ());
        match Trace.roots t with
        | [ root ] ->
          Test_util.check_string "recorded" "boom" root.Trace.name;
          Test_util.check_int "children survive" 1
            (List.length (Trace.children root))
        | _ -> Alcotest.fail "span lost on exception" );
    ( "a disabled tracer records nothing",
      fun () ->
        let t = Trace.disabled in
        let r = Trace.with_span t "q" (fun () -> 41 + 1) in
        Test_util.check_int "transparent" 42 r;
        Test_util.check_int "no roots" 0 (List.length (Trace.roots t));
        Test_util.check_bool "flag" false (Trace.enabled t) );
    ( "attributes are preserved",
      fun () ->
        let t = Trace.create () in
        Trace.with_span t ~attrs:[ ("engine", "rdbms") ] "query" (fun () -> ());
        match Trace.roots t with
        | [ root ] ->
          Test_util.check_string "attr" "rdbms"
            (List.assoc "engine" root.Trace.attrs)
        | _ -> Alcotest.fail "expected one root" );
    ( "record files a pre-measured interval under the open span",
      fun () ->
        let t = Trace.create () in
        Trace.with_span t "request" (fun () ->
            Trace.record t
              ~attrs:[ ("mode", "read") ]
              ~name:"queue-wait" ~start_ns:100L ~duration_ns:250L ());
        (match Trace.roots t with
        | [ root ] -> (
          match Trace.children root with
          | [ w ] ->
            Test_util.check_string "name" "queue-wait" w.Trace.name;
            Test_util.check_bool "duration kept" true
              (Int64.equal w.Trace.duration_ns 250L);
            Test_util.check_string "attr" "read"
              (List.assoc "mode" w.Trace.attrs)
          | kids ->
            Alcotest.failf "expected 1 recorded child, got %d"
              (List.length kids))
        | _ -> Alcotest.fail "expected one root");
        (* With no span open, a recorded interval becomes a root. *)
        Trace.clear t;
        Trace.record t ~name:"orphan" ~start_ns:0L ~duration_ns:1L ();
        (match Trace.roots t with
        | [ r ] -> Test_util.check_string "root record" "orphan" r.Trace.name
        | _ -> Alcotest.fail "expected the record as a root");
        (* And on a disabled tracer it is a no-op. *)
        Trace.record Trace.disabled ~name:"x" ~start_ns:0L ~duration_ns:1L ();
        Test_util.check_int "disabled no-op" 0
          (List.length (Trace.roots Trace.disabled)) );
    ( "fresh trace ids are distinct",
      fun () ->
        let a = Trace.fresh_id () and b = Trace.fresh_id () in
        Test_util.check_bool "non-empty" true (String.length a > 0);
        Test_util.check_bool "distinct" true (not (String.equal a b)) );
  ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let expo_tests =
  [
    ( "counters gain _total and a TYPE line",
      fun () ->
        let r = Metrics.create () in
        Metrics.add (Metrics.counter r "server.requests") 3;
        let s = Expo.render r in
        Test_util.check_bool "type line" true
          (contains s "# TYPE server_requests_total counter");
        Test_util.check_bool "sample" true (contains s "server_requests_total 3") );
    ( "histograms render cumulative buckets with +Inf, _sum and _count",
      fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r "lat.ns" in
        List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0 ];
        let s = Expo.render r in
        Test_util.check_bool "type histogram" true
          (contains s "# TYPE lat_ns histogram");
        Test_util.check_bool "le buckets" true (contains s "lat_ns_bucket{le=\"");
        Test_util.check_bool "+Inf closes the buckets" true
          (contains s "lat_ns_bucket{le=\"+Inf\"} 3");
        Test_util.check_bool "sum" true (contains s "lat_ns_sum 6");
        Test_util.check_bool "count" true (contains s "lat_ns_count 3") );
    ( "label values are escaped and names sanitized",
      fun () ->
        Test_util.check_string "sanitize" "blas_disk_wal_fsyncs"
          (Expo.sanitize_name "blas.disk.wal.fsyncs");
        let r = Metrics.create () in
        Metrics.set (Metrics.gauge r ~labels:[ ("doc", "a\"b\\c\nd") ] "g") 1.0;
        let s = Expo.render r in
        Test_util.check_bool "escaped label" true
          (contains s "doc=\"a\\\"b\\\\c\\nd\"") );
  ]

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                      *)

let with_temp_log f =
  let path = Filename.temp_file "blas_slowlog" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".1" ])
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let slowlog_tests =
  [
    ( "records are threshold-gated and the thunk is lazy",
      fun () ->
        with_temp_log @@ fun path ->
        let sl = Slowlog.create ~path ~threshold_ms:10.0 () in
        let built = ref 0 in
        let mk () =
          incr built;
          Json.Obj [ ("query", Json.Str "/a/b"); ("elapsed_ms", Json.Float 20.0) ]
        in
        Slowlog.maybe sl ~elapsed_ns:1_000_000L mk;
        Test_util.check_int "fast request skipped" 0 !built;
        Slowlog.maybe sl ~elapsed_ns:20_000_000L mk;
        Test_util.check_int "slow request recorded" 1 !built;
        Slowlog.close sl;
        let body = read_file path in
        Test_util.check_bool "one JSON line" true
          (contains body "{\"query\":\"/a/b\""
          && body.[String.length body - 1] = '\n') );
    ( "rotation bounds the live file",
      fun () ->
        with_temp_log @@ fun path ->
        let sl = Slowlog.create ~path ~threshold_ms:0.0 ~max_bytes:128 () in
        for i = 1 to 32 do
          Slowlog.maybe sl ~elapsed_ns:1L (fun () ->
              Json.Obj [ ("i", Json.Int i); ("pad", Json.Str (String.make 24 'x')) ])
        done;
        Slowlog.close sl;
        Test_util.check_bool "rotated file exists" true
          (Sys.file_exists (path ^ ".1"));
        let live = read_file path in
        Test_util.check_bool "live file bounded" true
          (String.length live <= 128 + 64) );
  ]

(* ------------------------------------------------------------------ *)
(* Time series ring                                                    *)

let timeseries_tests =
  [
    ( "the ring keeps the newest points, oldest first",
      fun () ->
        let ts = Timeseries.create ~capacity:3 in
        for i = 1 to 5 do
          Timeseries.push ts ~at_ms:(float_of_int i) (Json.Int i)
        done;
        Test_util.check_int "length clamps" 3 (Timeseries.length ts);
        Test_util.check_int "capacity" 3 (Timeseries.capacity ts);
        let ats = List.map (fun p -> p.Timeseries.at_ms) (Timeseries.points ts) in
        Test_util.check_bool "oldest first after eviction" true
          (ats = [ 3.0; 4.0; 5.0 ]) );
    ( "to_json is a list of {at_ms; metrics} points",
      fun () ->
        let ts = Timeseries.create ~capacity:2 in
        Timeseries.push ts ~at_ms:7.0 (Json.Obj [ ("n", Json.Int 1) ]);
        let s = Json.to_string (Timeseries.to_json ts) in
        Test_util.check_bool "list" true (s.[0] = '[');
        Test_util.check_bool "at_ms" true (contains s "\"at_ms\":7");
        Test_util.check_bool "metrics" true (contains s "\"metrics\":{\"n\":1}") );
  ]

(* ------------------------------------------------------------------ *)
(* JSON encoder                                                       *)

let json_tests =
  [
    ( "scalar and container rendering",
      fun () ->
        let doc =
          Json.Obj
            [
              ("a", Json.Int 1);
              ("b", Json.Str "x\"y\n");
              ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
            ]
        in
        Test_util.check_string "compact"
          "{\"a\":1,\"b\":\"x\\\"y\\n\",\"c\":[true,null,1.5]}"
          (Json.to_string doc) );
    ( "exporters produce parse-shaped output",
      fun () ->
        let r = Metrics.create () in
        Metrics.add (Metrics.counter r "n") 3;
        Metrics.observe (Metrics.histogram r "h") 10.0;
        let s = Json.to_string (Metrics.to_json r) in
        Test_util.check_bool "metrics json mentions counter" true
          (String.length s > 0 && s.[0] = '[');
        let t = Trace.create () in
        Trace.with_span t "q" (fun () -> ());
        let s = Json.to_string (Trace.to_json t) in
        Test_util.check_bool "trace json is a list" true (s.[0] = '[') );
  ]

(* ------------------------------------------------------------------ *)
(* Analyze trees and the collector                                    *)

let stats read seeks =
  { Analyze.read; seeks; page_requests = 0; page_reads = 0 }

let analyze_tests =
  [
    ( "total_stats sums self over the tree",
      fun () ->
        let leaf1 =
          Analyze.make ~label:"scan a" ~kind:"access" ~rows:10
            ~self:(stats 10 2) []
        in
        let leaf2 =
          Analyze.make ~label:"scan b" ~kind:"access" ~rows:5 ~self:(stats 5 1)
            []
        in
        let join =
          Analyze.make ~label:"djoin" ~kind:"djoin" ~rows:3 ~self:(stats 0 0)
            [ leaf1; leaf2 ]
        in
        let total = Analyze.total_stats join in
        Test_util.check_int "read" 15 total.Analyze.read;
        Test_util.check_int "seeks" 3 total.Analyze.seeks;
        Test_util.check_int "total_read" 15 (Analyze.total_read join);
        Test_util.check_int "rows of kind" 15
          (Analyze.total_rows_of_kind "access" join) );
    ( "collector assigns each frame its own delta",
      fun () ->
        let charged = ref 0 in
        let snapshot () = stats !charged 0 in
        let c = Analyze.Collector.create ~snapshot in
        let wrap kind label rows f =
          Analyze.Collector.wrap c ~kind ~label ~rows:(fun _ -> rows) f
        in
        wrap "root" "query" 1 (fun () ->
            wrap "access" "scan a" 4 (fun () -> charged := !charged + 4);
            (* charged outside any child: belongs to the root's self *)
            charged := !charged + 7;
            wrap "access" "scan b" 2 (fun () -> charged := !charged + 2));
        (match Analyze.Collector.roots c with
        | [ root ] ->
          Test_util.check_int "root self = own charges" 7
            root.Analyze.self.Analyze.read;
          Test_util.check_int "children" 2 (List.length root.Analyze.children);
          let kid_reads =
            List.map
              (fun n -> n.Analyze.self.Analyze.read)
              root.Analyze.children
          in
          Test_util.check_int_list "children deltas" [ 4; 2 ] kid_reads;
          Test_util.check_int "tree total = global total" !charged
            (Analyze.total_read root)
        | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)) );
    ( "pp renders one line per node",
      fun () ->
        let tree =
          Analyze.make ~label:"q" ~kind:"query" ~rows:1
            [ Analyze.make ~label:"scan" ~kind:"access" ~rows:2 [] ]
        in
        let s = Analyze.to_string tree in
        Test_util.check_bool "mentions both labels" true
          (let has sub =
             let n = String.length s and m = String.length sub in
             let rec go i =
               i + m <= n && (String.sub s i m = sub || go (i + 1))
             in
             go 0
           in
           has "q" && has "scan" && has "rows=2") );
  ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE reconciliation on the Figure 10 queries            *)

(* The nine hand-written queries of the paper's Figure 10, run against
   small instances of the matching generated datasets. *)
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

let translators =
  [ Blas.D_labeling; Blas.Split; Blas.Pushup; Blas.Unfold; Blas.Auto2 ]

let engines = [ Blas.Rdbms; Blas.Twig ]

let reconcile_tests =
  List.map
    (fun (dataset, storage, queries) ->
      ( Printf.sprintf "%s: analyze trees reconcile with counters" dataset,
        fun () ->
          let storage = Lazy.force storage in
          List.iter
            (fun (qname, qs) ->
              let query = Blas.query qs in
              let plain =
                Blas.answers storage ~engine:Blas.Rdbms
                  ~translator:Blas.Pushup query
              in
              List.iter
                (fun translator ->
                  List.iter
                    (fun engine ->
                      let where =
                        Printf.sprintf "%s %s/%s" qname
                          (Blas.translator_name translator)
                          (Blas.engine_name engine)
                      in
                      let report, tree =
                        Blas.run_analyze storage ~engine ~translator query
                      in
                      let c = report.Blas.counters in
                      let total = Analyze.total_stats tree in
                      (* The reconciliation invariant: per-node self
                         charges sum exactly to the global counters. *)
                      Test_util.check_int (where ^ ": read") c.Blas_rel.Counters.tuples_read
                        total.Analyze.read;
                      Test_util.check_int (where ^ ": seeks")
                        c.Blas_rel.Counters.index_seeks total.Analyze.seeks;
                      Test_util.check_int
                        (where ^ ": page requests")
                        c.Blas_rel.Counters.page_requests
                        total.Analyze.page_requests;
                      Test_util.check_int (where ^ ": page reads")
                        c.Blas_rel.Counters.page_reads total.Analyze.page_reads;
                      (* The root is the whole query: its row count is
                         the answer cardinality. *)
                      Test_util.check_int (where ^ ": root rows")
                        (List.length report.Blas.starts)
                        tree.Analyze.rows;
                      Test_util.check_string (where ^ ": root kind") "query"
                        tree.Analyze.kind;
                      (* Analyze runs return the same answers as plain
                         runs, and the report stays coherent. *)
                      Test_util.check_int_list (where ^ ": answers") plain
                        report.Blas.starts;
                      Test_util.check_int (where ^ ": visited = read")
                        c.Blas_rel.Counters.tuples_read report.Blas.visited;
                      (* Page accounting: requests bound reads, and any
                         tuple access went through the pool. *)
                      Test_util.check_bool
                        (where ^ ": requests >= reads") true
                        (c.Blas_rel.Counters.page_requests
                        >= c.Blas_rel.Counters.page_reads);
                      if c.Blas_rel.Counters.tuples_read > 0 then
                        Test_util.check_bool
                          (where ^ ": reads request pages") true
                          (c.Blas_rel.Counters.page_requests > 0))
                    engines)
                translators)
            queries ) )
    fig10

(* The same invariant against an explicitly disk-backed database (not
   the BLAS_TEST_DISK reroute): now that [Counters.page_reads] is
   measured I/O, the per-operator page rows must still sum exactly to
   the run totals, and pool misses must reach the pager. *)
let disk_reconcile_tests =
  [
    ( "disk-backed analyze reconciles with measured pager I/O",
      fun () ->
        let tree = Blas_datagen.Shakespeare.generate ~plays:1 () in
        let path = Filename.temp_file "blas_obs_disk" ".blasdb" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun f -> try Sys.remove f with Sys_error _ -> ())
              [ path; path ^ ".wal" ])
        @@ fun () ->
        Blas.Database.create ~page_size:4096 ~path (Blas.Storage.of_tree tree);
        let storage =
          Blas.Database.open_ ~cache_pages:8 ~mode:Blas.Database.Ro ~path ()
        in
        Fun.protect ~finally:(fun () -> Blas.Storage.close storage)
        @@ fun () ->
        let dk =
          match Blas.Storage.disk storage with
          | Some d -> d
          | None -> Alcotest.fail "expected a disk-backed storage"
        in
        List.iter
          (fun (qname, qs) ->
            let io0 = dk.Blas.Storage.dk_io () in
            let report, tree =
              Blas.run_analyze storage ~engine:Blas.Rdbms
                ~translator:Blas.Pushup (Blas.query qs)
            in
            let io1 = dk.Blas.Storage.dk_io () in
            let c = report.Blas.counters in
            let total = Analyze.total_stats tree in
            Test_util.check_int (qname ^ ": read")
              c.Blas_rel.Counters.tuples_read total.Analyze.read;
            Test_util.check_int (qname ^ ": seeks")
              c.Blas_rel.Counters.index_seeks total.Analyze.seeks;
            Test_util.check_int
              (qname ^ ": page requests")
              c.Blas_rel.Counters.page_requests total.Analyze.page_requests;
            Test_util.check_int (qname ^ ": page reads")
              c.Blas_rel.Counters.page_reads total.Analyze.page_reads;
            let disk_reads =
              io1.Blas_disk.Store.io_page_reads
              - io0.Blas_disk.Store.io_page_reads
            in
            (* With an 8-page cache the scans must miss, and every pool
               miss is a real pager read. *)
            Test_util.check_bool (qname ^ ": pool misses occur") true
              (c.Blas_rel.Counters.page_reads > 0);
            Test_util.check_bool
              (qname ^ ": misses reach the pager")
              true (disk_reads > 0))
          [
            ("QS1", "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE");
            ("QS2", "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR");
          ] );
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    (hist_tests @ registry_tests @ trace_tests @ expo_tests @ slowlog_tests
   @ timeseries_tests @ json_tests @ analyze_tests @ reconcile_tests
   @ disk_reconcile_tests)
