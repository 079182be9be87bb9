(** Tests for the buffer pool and the page accounting of tables. *)

open Blas_rel

let backing = Test_util.empty_backing

let get pool ~table ~page = snd (Buffer_pool.get pool ~table ~page)

(* Requests [pages] as one run, as a clustered fetch does; the number
   of misses. *)
let run_misses pool pages =
  let run = List.length pages in
  List.fold_left
    (fun n page ->
      match snd (Buffer_pool.get ~run pool ~table:"t" ~page) with
      | `Miss -> n + 1
      | `Hit -> n)
    0 pages

(* The misses of each of [repeats] passes of [pages] as one run. *)
let repeat_misses pool pages repeats =
  List.init repeats (fun _ -> run_misses pool pages)

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

let run_unit_tests =
  [
    ( "a repeated run one page longer than the pool misses 2 pages",
      fun () ->
        let capacity = 8 in
        let pool = Buffer_pool.create ~capacity backing in
        let pages = List.init (capacity + 1) Fun.id in
        match repeat_misses pool pages 5 with
        | first :: repeats ->
          Test_util.check_int "first pass misses every page" (capacity + 1) first;
          List.iter (Test_util.check_int "a repeat misses 2 pages" 2) repeats
        | [] -> assert false );
    ( "a run that fits stays plain LRU",
      fun () ->
        let pool = Buffer_pool.create ~capacity:8 backing in
        let pages = List.init 8 Fun.id in
        Test_util.check_bool "only the first pass misses" true
          (repeat_misses pool pages 3 = [ 8; 0; 0 ]) );
    ( "a hot single page survives an oversized run",
      fun () ->
        let pool = Buffer_pool.create ~capacity:4 backing in
        ignore (get pool ~table:"t" ~page:100);
        ignore (run_misses pool (List.init 10 Fun.id));
        Test_util.check_bool "hot page still resident" true
          (get pool ~table:"t" ~page:100 = `Hit) );
    ( "a dirty page evicted from the cold end is written back once",
      fun () ->
        let writes = ref [] in
        let backing =
          {
            backing with
            Buffer_pool.back_write =
              (fun ~table:_ ~page _ -> writes := page :: !writes);
          }
        in
        let pool = Buffer_pool.create ~capacity:4 backing in
        Buffer_pool.store pool ~table:"t" ~page:100 (Buffer_pool.Rows []);
        (* Three hotter pages leave the dirty one at the cold end. *)
        List.iter (fun page -> ignore (get pool ~table:"t" ~page)) [ 101; 102; 103 ];
        ignore (run_misses pool (List.init 6 Fun.id));
        ignore (run_misses pool (List.init 6 Fun.id));
        Buffer_pool.flush pool;
        Test_util.check_bool "written back exactly once" true (!writes = [ 100 ]);
        Test_util.check_int "one dirty eviction" 1 (Buffer_pool.dirty_evictions pool) );
    ( "a striped pool keeps the cold-end rule",
      fun () ->
        (* Two stripes of 4 pages: 5 pages of the run land in stripe 0
           and 4 in stripe 1 (the pool partitions keys by
           [Hashtbl.hash key mod stripes]), 9 pages in all. *)
        let pool = Buffer_pool.create_striped ~stripes:2 ~capacity:8 backing in
        let in_stripe i n =
          Seq.ints 0
          |> Seq.filter (fun page -> Hashtbl.hash ("t", page) mod 2 = i)
          |> Seq.take n |> List.of_seq
        in
        let pages = List.sort Int.compare (in_stripe 0 5 @ in_stripe 1 4) in
        match repeat_misses pool pages 4 with
        | first :: repeats ->
          Test_util.check_int "first pass misses every page" 9 first;
          (* Plain LRU would miss all 5 of stripe 0's pages each time. *)
          List.iter (Test_util.check_int "a repeat misses 2 pages" 2) repeats
        | [] -> assert false );
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

(* The same model with page runs mixed in: a run of more pages than
   the pool holds inserts each page it misses at the cold end (the
   model list's tail); every other request, and every hit, is LRU. *)
type request = Single of int | Run of int * int  (** first page, length *)

let run_model_prop =
  let gen =
    Gen.(
      int_range 1 8 >>= fun capacity ->
      let request =
        oneof
          [
            map (fun p -> Single p) (int_range 0 12);
            map2 (fun p n -> Run (p, n)) (int_range 0 12) (int_range 1 (2 * capacity));
          ]
      in
      pair (return capacity) (list_size (int_range 0 60) request))
  in
  Test_util.qtest "pool with runs behaves like a model cold-insertion LRU" gen
    (fun (capacity, requests) ->
      let pool = Buffer_pool.create ~capacity backing in
      let model = ref [] in
      let access ~run page =
        let expected_hit = List.mem page !model in
        let rest = List.filter (fun p -> p <> page) !model in
        (* A miss in a full pool drops the tail first. *)
        let rest = List.filteri (fun i _ -> i < capacity - 1) rest in
        model :=
          (if expected_hit || run <= capacity then page :: rest
           else rest @ [ page ]);
        snd (Buffer_pool.get ~run pool ~table:"t" ~page)
        = if expected_hit then `Hit else `Miss
      in
      List.for_all
        (function
          | Single page -> access ~run:1 page
          | Run (first, n) ->
            List.for_all (access ~run:n) (List.init n (fun i -> first + i)))
        requests)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) (unit_tests @ run_unit_tests)
  @ [ lru_model_prop; run_model_prop ]
