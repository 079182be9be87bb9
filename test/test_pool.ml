(** Tests for the buffer pool and the page accounting of tables. *)

open Blas_rel

let backing = Test_util.empty_backing

let get pool ~table ~page = snd (Buffer_pool.get pool ~table ~page)

let unit_tests =
  [
    ( "hits and misses",
      fun () ->
        let pool = Buffer_pool.create ~capacity:2 backing in
        Test_util.check_bool "first is a miss" true
          (get pool ~table:"t" ~page:0 = `Miss);
        Test_util.check_bool "repeat is a hit" true
          (get pool ~table:"t" ~page:0 = `Hit);
        Test_util.check_int "requests" 2 (Buffer_pool.requests pool);
        Test_util.check_int "misses" 1 (Buffer_pool.misses pool) );
    ( "pages are distinct per table",
      fun () ->
        let pool = Buffer_pool.create ~capacity:4 backing in
        ignore (get pool ~table:"a" ~page:0);
        Test_util.check_bool "same page other table misses" true
          (get pool ~table:"b" ~page:0 = `Miss) );
    ( "LRU eviction",
      fun () ->
        let pool = Buffer_pool.create ~capacity:2 backing in
        ignore (get pool ~table:"t" ~page:0);
        ignore (get pool ~table:"t" ~page:1);
        (* Touch 0 so 1 becomes the LRU victim. *)
        ignore (get pool ~table:"t" ~page:0);
        ignore (get pool ~table:"t" ~page:2);
        Test_util.check_bool "0 still resident" true
          (get pool ~table:"t" ~page:0 = `Hit);
        Test_util.check_bool "1 was evicted" true
          (get pool ~table:"t" ~page:1 = `Miss);
        Test_util.check_int "resident bounded" 2 (Buffer_pool.resident pool) );
    ( "flush empties but keeps statistics",
      fun () ->
        let pool = Buffer_pool.create ~capacity:4 backing in
        ignore (get pool ~table:"t" ~page:0);
        Buffer_pool.flush pool;
        Test_util.check_int "nothing resident" 0 (Buffer_pool.resident pool);
        Test_util.check_int "stats kept" 1 (Buffer_pool.misses pool);
        Test_util.check_bool "cold again" true
          (get pool ~table:"t" ~page:0 = `Miss) );
    ( "capacity validation",
      fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Buffer_pool.create: capacity must be >= 1") (fun () ->
            ignore (Buffer_pool.create ~capacity:0 backing)) );
    ( "table charges one request per clustered page",
      fun () ->
        (* 7-byte rows on 96-byte pages at 0.9 fill: 10 rows a page. *)
        let store = Page_store.memory ~page_size:96 ~codec:Codec.V1 () in
        let pool = store.Page_store.pool in
        let rows =
          List.init 100 (fun i ->
              Tuple.of_list [ Value.Int (1000 + i); Value.Int (2000 + (2 * i)) ])
        in
        let t =
          Table.load store ~name:"t"
            ~schema:(Schema.of_list [ "k"; "v" ])
            ~cluster_key:[ "k" ] rows
        in
        Test_util.check_int "page count" 10 (Table.page_count t);
        Buffer_pool.reset_stats pool;
        let c = Counters.create () in
        (* Keys 1010-1034 live on data pages 1, 2 and 3; the directory
           probe starts one page early, whose tail could hold keys equal
           to the lower bound. *)
        ignore
          (Table.index_range t c ~column:"k" ~lo:(Some (Value.Int 1010))
             ~hi:(Some (Value.Int 1034)));
        Test_util.check_int "pages requested" 4 (Buffer_pool.requests pool);
        Test_util.check_int "charged" 4 c.Counters.page_requests;
        Buffer_pool.reset_stats pool;
        ignore (Table.scan t c);
        Test_util.check_int "scan touches all pages" 10 (Buffer_pool.requests pool) );
    ( "cold vs warm runs through the full system",
      fun () ->
        let storage =
          Blas.Storage.of_tree ~pool_capacity:4096
            (Blas_datagen.Protein.generate ~entries:50 ())
        in
        let q = Blas.query "/ProteinDatabase/ProteinEntry/protein/name" in
        Blas.Storage.cold_cache storage;
        let cold = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q in
        let warm = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q in
        Test_util.check_bool "cold run reads pages" true (cold.Blas.page_reads > 0);
        Test_util.check_int "warm run reads none" 0 warm.Blas.page_reads;
        Test_util.check_bool "same answers" true (cold.Blas.starts = warm.Blas.starts) );
    ( "clustered access touches fewer pages than the baseline",
      fun () ->
        let storage =
          Blas.Storage.of_tree ~pool_capacity:8192
            (Blas_datagen.Protein.generate ~entries:200 ())
        in
        let q = Blas.query "/ProteinDatabase/ProteinEntry/protein/name" in
        Blas.Storage.cold_cache storage;
        let blas = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q in
        Blas.Storage.cold_cache storage;
        let base = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.D_labeling q in
        Test_util.check_bool "fewer disk accesses" true
          (blas.Blas.page_reads < base.Blas.page_reads) );
  ]

(* LRU model check: the pool must behave like a naive LRU list. *)
module Gen = QCheck2.Gen

let lru_model_prop =
  let gen =
    Gen.pair (Gen.int_range 1 8) (Gen.list_size (Gen.int_range 0 200) (Gen.int_range 0 12))
  in
  Test_util.qtest "pool behaves like a model LRU" gen (fun (capacity, accesses) ->
      let pool = Buffer_pool.create ~capacity backing in
      let model = ref [] in
      List.for_all
        (fun page ->
          let expected_hit = List.mem page !model in
          model := page :: List.filter (fun p -> p <> page) !model;
          if List.length !model > capacity then
            model := List.filteri (fun i _ -> i < capacity) !model;
          let got = get pool ~table:"t" ~page in
          got = (if expected_hit then `Hit else `Miss))
        accesses)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ [ lru_model_prop ]
