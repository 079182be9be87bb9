(** Tests for the cluster layer: the shard map (consistent hashing and
    self-describing chunk names), D-label range partitioning and the
    document-order merge, and a live in-process cluster — scatter-gather
    byte-identity against single-server runs (fixed fig10 queries and a
    qcheck property over random documents), replica update fan-out,
    hedged requests against a slow primary (and the loser's connection
    never serving a later read), per-chunk failover of a scattered read,
    BUSY failover with hedging off, back-end sockets above FD_SETSIZE,
    and breaker-driven BUSY degradation when a shard dies.

    Every cluster binds ephemeral loopback ports, so the suite runs in
    parallel with anything. *)

module P = Blas_server.Proto
module C = Blas_server.Client
module Srv = Blas_server.Server
module Svc = Blas_server.Service
module Sm = Blas_cluster.Shard_map
module Partition = Blas_cluster.Partition
module Merge = Blas_cluster.Merge
module Router = Blas_cluster.Router
module Local = Blas_cluster.Local

let translators = [ Blas.Split; Blas.Pushup; Blas.Unfold ]

let engines = [ Blas.Rdbms; Blas.Twig ]

let small_plays () = Blas_datagen.Shakespeare.generate ~plays:1 ()

let small_auction () = Blas_datagen.Auction.generate ~scale:4 ()

(* The Figure 10 queries for the two hosted datasets. *)
let plays_queries =
  [
    "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE";
    "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR";
    "//SPEECH[SPEAKER]/LINE";
  ]

let auction_queries =
  [
    "//category/description/parlist/listitem";
    "/site/regions//item/description";
    "/site/regions/asia/item[shipping]/description";
  ]

let expected_payload storage ~translator ~engine q =
  Svc.payload_of_report
    (Blas.run_union storage ~engine ~translator (Blas.query_union q))

let expect_ok name = function
  | P.Ok_payload p -> p
  | reply -> Alcotest.failf "%s: expected OK, got %s" name (P.reply_to_string reply)

let counter_value reg name =
  Blas_obs.Metrics.counter_value (Blas_obs.Metrics.counter reg name)

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)

let shard_map_units () =
  (* The hash and the placement are deterministic across map instances
     (shard processes and the router must agree from names alone). *)
  Test_util.check_bool "hash deterministic" true
    (Sm.hash64 "auction" = Sm.hash64 "auction"
    && Sm.hash64 "auction" <> Sm.hash64 "plays");
  let m1 = Sm.create ~shards:8 () and m2 = Sm.create ~shards:8 () in
  let names = List.init 4000 (Printf.sprintf "doc-%d") in
  List.iter
    (fun n ->
      let k = Sm.shard_of_doc m1 n in
      Test_util.check_bool "in range" true (k >= 0 && k < 8);
      Test_util.check_int "stable across instances" k (Sm.shard_of_doc m2 n))
    names;
  (* Rough balance over the virtual-node ring. *)
  let counts = Array.make 8 0 in
  List.iter (fun n -> counts.(Sm.shard_of_doc m1 n) <- counts.(Sm.shard_of_doc m1 n) + 1) names;
  Array.iteri
    (fun k c ->
      if c < 100 then
        Alcotest.failf "shard %d got only %d of 4000 documents" k c)
    counts;
  (match Sm.create ~shards:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards = 0 accepted");
  (* Chunk names are self-describing and round-trip. *)
  let name = Sm.chunk_name ~doc:"big" ~index:2 ~offset:137 in
  (match Sm.parse_chunk_name name with
  | Some (doc, ck) ->
    Test_util.check_string "chunk doc" "big" doc;
    Test_util.check_int "chunk index" 2 ck.Sm.ck_index;
    Test_util.check_int "chunk offset" 137 ck.Sm.ck_offset;
    Test_util.check_string "chunk full name" name ck.Sm.ck_doc
  | None -> Alcotest.fail "chunk name did not parse");
  Test_util.check_bool "plain name is not a chunk" true
    (Sm.parse_chunk_name "plain" = None);
  (* assemble groups chunks by document, sorted by index, and returns
     plain names alongside. *)
  let parts, plains =
    Sm.assemble
      [
        Sm.chunk_name ~doc:"big" ~index:1 ~offset:50;
        "plain";
        Sm.chunk_name ~doc:"big" ~index:0 ~offset:0;
      ]
  in
  Test_util.check_int "one partition" 1 (List.length parts);
  let part = List.hd parts in
  Test_util.check_string "partition doc" "big" part.Sm.pt_doc;
  Test_util.check_int_list "chunks sorted by index" [ 0; 1 ]
    (List.map (fun c -> c.Sm.ck_index) part.Sm.pt_chunks);
  Test_util.check_bool "plain names kept" true (plains = [ "plain" ]);
  match
    Sm.assemble
      [
        Sm.chunk_name ~doc:"big" ~index:0 ~offset:0;
        Sm.chunk_name ~doc:"big" ~index:2 ~offset:9;
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing chunk index accepted"

(* ------------------------------------------------------------------ *)
(* Partition + merge: the uniform-shift exactness, in-process          *)

let merge_units () =
  Test_util.check_int "root stays 1" 1 (Merge.map_start ~offset:10 1);
  Test_util.check_int "non-root shifts" 15 (Merge.map_start ~offset:10 5);
  Test_util.check_int_list "merge unions in document order" [ 1; 5; 11; 17 ]
    (Merge.merge [ (0, [ 1; 5 ]); (10, [ 1; 7 ]); (6, [ 5 ]) ]);
  let payload = Merge.render_answers [ 3; 9; 27 ] in
  Test_util.check_bool "render/parse round-trip" true
    (Merge.parse_answers payload = Some [ 3; 9; 27 ]);
  Test_util.check_bool "garbage does not parse" true
    (Merge.parse_answers "answers two\nx" = None)

let partition_merge_exact () =
  (* A fixed random document: per-chunk answers mapped through the
     chunk offsets and merged must equal the unsplit run — the
     scatter-gather exactness argument without any sockets. *)
  let rand = Random.State.make [| 0x5eed; 7 |] in
  let tree = QCheck2.Gen.generate1 ~rand Test_util.doc_gen in
  let full = Blas.index_of_tree tree in
  let named = Partition.split_named ~doc:"big" ~chunks:3 tree in
  Test_util.check_bool "split produced chunks" true (List.length named >= 1);
  let chunks =
    List.map
      (fun (name, piece) ->
        match Sm.parse_chunk_name name with
        | Some (_, ck) -> (ck.Sm.ck_offset, Blas.index_of_tree piece)
        | None -> Alcotest.failf "bad chunk name %S" name)
      named
  in
  List.iter
    (fun q ->
      let expected =
        (Blas.run_union full ~engine:Blas.Rdbms ~translator:Blas.Pushup
           (Blas.query_union q))
          .Blas.starts
      in
      let merged =
        Merge.merge
          (List.map
             (fun (offset, s) ->
               ( offset,
                 (Blas.run_union s ~engine:Blas.Twig ~translator:Blas.Split
                    (Blas.query_union q))
                   .Blas.starts ))
             chunks)
      in
      Test_util.check_int_list q expected merged)
    [ "//a"; "//b"; "/r/a"; "//c//d"; "//a/b"; "//d[. = \"x\"]" ]

let partition_chunk_order () =
  (* split_named returns chunks in document order: ck_index equals the
     slice's position, the slice holding the document's first child is
     index 0 with label shift 0, and shifts grow with the index.
     (Regression: a double reversal used to hand index 0 to the *last*
     slice.) *)
  let tree =
    Blas_xml.Dom.parse "<r><a>aaaa</a><b>bbbb</b><c>cccc</c><d>dddd</d></r>"
  in
  let named = Partition.split_named ~doc:"big" ~chunks:2 tree in
  let parsed =
    List.map
      (fun (name, piece) ->
        match Sm.parse_chunk_name name with
        | Some (_, ck) -> (ck, piece)
        | None -> Alcotest.failf "bad chunk name %S" name)
      named
  in
  Test_util.check_int "two chunks" 2 (List.length parsed);
  List.iteri
    (fun i (ck, _) ->
      Test_util.check_int "ck_index is the slice position" i ck.Sm.ck_index)
    parsed;
  (match parsed with
  | (ck0, piece0) :: _ ->
    Test_util.check_int "first chunk has shift 0" 0 ck0.Sm.ck_offset;
    (match piece0 with
    | Blas_xml.Types.Element (_, Blas_xml.Types.Element ("a", _) :: _) -> ()
    | _ -> Alcotest.fail "first chunk does not start with the first child")
  | [] -> Alcotest.fail "no chunks");
  let offs = List.map (fun (ck, _) -> ck.Sm.ck_offset) parsed in
  Test_util.check_bool "shifts strictly increase with index" true
    (List.sort_uniq compare offs = offs)

(* ------------------------------------------------------------------ *)
(* Live cluster: byte-identity under both partitioning schemes         *)

let router_byte_identity () =
  let plays = small_plays () and auction = small_auction () in
  let local_plays = Blas.index_of_tree plays in
  let local_auction = Blas.index_of_tree auction in
  Local.with_cluster ~shards:3
    ~docs:
      [
        ("plays", fun () -> Blas.index_of_tree plays);
        ("auction", fun () -> Blas.index_of_tree auction);
      ]
    (fun t ->
      C.with_client (Local.port t) (fun c ->
          List.iter
            (fun (doc, local, queries) ->
              List.iter
                (fun translator ->
                  List.iter
                    (fun engine ->
                      List.iter
                        (fun q ->
                          let expected =
                            expected_payload local ~translator ~engine q
                          in
                          let got =
                            expect_ok
                              (Printf.sprintf "%s: %s" doc q)
                              (C.query c ~doc ~translator ~engine q)
                          in
                          Test_util.check_string
                            (Printf.sprintf "%s: %s (%s on %s)" doc q
                               (Blas.translator_name translator)
                               (Blas.engine_name engine))
                            expected got)
                        queries)
                    engines)
                translators)
            [
              ("plays", local_plays, plays_queries);
              ("auction", local_auction, auction_queries);
            ];
          (* Unknown documents answer ERR through the router too. *)
          match
            C.query c ~doc:"nosuch" ~translator:Blas.Pushup ~engine:Blas.Rdbms
              "//a"
          with
          | P.Err _ -> ()
          | reply -> Alcotest.failf "unknown doc: %s" (P.reply_to_string reply)))

let router_byte_identity_range () =
  (* The auction document range-partitioned over its D-label intervals:
     the router reassembles the partition from the chunk names alone
     and scatter-gathers, byte-identical to the unsplit single run. *)
  let plays = small_plays () and auction = small_auction () in
  let local_auction = Blas.index_of_tree auction in
  Local.with_cluster ~shards:3
    ~partition:("auction", auction, 4)
    ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
    (fun t ->
      C.with_client (Local.port t) (fun c ->
          List.iter
            (fun translator ->
              List.iter
                (fun engine ->
                  List.iter
                    (fun q ->
                      let expected =
                        expected_payload local_auction ~translator ~engine q
                      in
                      let got =
                        expect_ok q
                          (C.query c ~doc:"auction" ~translator ~engine q)
                      in
                      Test_util.check_string
                        (Printf.sprintf "partitioned %s (%s on %s)" q
                           (Blas.translator_name translator)
                           (Blas.engine_name engine))
                        expected got)
                    auction_queries)
                engines)
            translators))

(* ------------------------------------------------------------------ *)
(* qcheck: random documents, random queries, identical bytes           *)

(* One shared 3-shard cluster over fixed random documents (spawning a
   cluster per qcheck case would dominate the suite); the property
   draws the document, query, translator and engine per case. *)
let qcheck_trees =
  lazy
    (let rand = Random.State.make [| 0xb1a5; 0xc1 |] in
     Array.init 6 (fun _ -> QCheck2.Gen.generate1 ~rand Test_util.doc_gen))

let qcheck_oracles =
  lazy (Array.map Blas.index_of_tree (Lazy.force qcheck_trees))

let qcheck_cluster =
  lazy
    (let trees = Lazy.force qcheck_trees in
     let docs =
       Array.to_list
         (Array.mapi
            (fun i tree ->
              (Printf.sprintf "rnd%d" i, fun () -> Blas.index_of_tree tree))
            trees)
     in
     let t = Local.start ~shards:3 ~docs () in
     at_exit (fun () -> try Local.stop t with _ -> ());
     t)

let scatter_gather_property =
  Test_util.qtest ~count:50 "scatter-gather is byte-identical to a single run"
    QCheck2.Gen.(
      pair
        (pair (int_range 0 5) (Test_util.query_gen ()))
        (pair (oneofl translators) (oneofl engines)))
    (fun ((i, q), (translator, engine)) ->
      let t = Lazy.force qcheck_cluster in
      let xpath = Blas_xpath.Pretty.to_string q in
      let expected =
        expected_payload (Lazy.force qcheck_oracles).(i) ~translator ~engine
          xpath
      in
      let got =
        C.with_client (Local.port t) (fun c ->
            C.query c
              ~doc:(Printf.sprintf "rnd%d" i)
              ~translator ~engine xpath)
      in
      got = P.Ok_payload expected)

(* ------------------------------------------------------------------ *)
(* Replica update fan-out                                              *)

let replica_update_fanout () =
  let plays = small_plays () in
  let local = Blas.index_of_tree plays in
  Local.with_cluster ~shards:2 ~replicas:1
    ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
    (fun t ->
      let shard =
        match
          List.find_opt
            (fun k -> List.mem "plays" (Local.shard_docs t k))
            [ 0; 1 ]
        with
        | Some k -> k
        | None -> Alcotest.fail "plays not hosted anywhere"
      in
      let q = "//MARKER" in
      C.with_client (Local.port t) (fun c ->
          (* Baseline through the router. *)
          let before =
            expect_ok "baseline"
              (C.query c ~doc:"plays" ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms q)
          in
          Test_util.check_string "no markers yet"
            (expected_payload local ~translator:Blas.Pushup ~engine:Blas.Rdbms
               q)
            before;
          (* One routed update: the router applies it on the primary via
             UPDATEX and re-applies it on the replica. *)
          ignore
            (expect_ok "routed update"
               (C.update c ~doc:"plays"
                  (P.Insert { parent = 1; pos = 0; xml = "<MARKER>x</MARKER>" })));
          let through_router =
            expect_ok "query after update"
              (C.query c ~doc:"plays" ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms q)
          in
          Test_util.check_bool "router sees the marker" true
            (through_router <> before);
          (* The replica, asked directly behind the router's back,
             serves the same updated answer bytes. *)
          let replica_port = Local.endpoint_port t shard 1 in
          let on_replica =
            C.with_client replica_port (fun rc ->
                expect_ok "replica query"
                  (C.query rc ~doc:"plays" ~translator:Blas.Pushup
                     ~engine:Blas.Rdbms q))
          in
          Test_util.check_string "replica converged" through_router on_replica;
          (* The cross-check saw no divergence. *)
          let reg = Router.registry (Local.router t) in
          Test_util.check_int "no replica mismatches" 0
            (counter_value reg "router.replica.mismatch")))

(* Concurrent routed updates to one document must reach the replica in
   the primary's apply order.  RETEXTs at the same start do not
   commute, and reordered re-application would leave the replica
   silently diverged forever — the per-edit invalidation records are
   identical under reordering, so the mismatch counter cannot catch
   it.  (Regression for the router's per-document update lock.) *)
let replica_ordering_under_concurrency () =
  let plays = small_plays () in
  let local = Blas.index_of_tree plays in
  (* The start of one SPEAKER element — every client retexts this node. *)
  let target =
    match
      (Blas.run_union local ~engine:Blas.Rdbms ~translator:Blas.Pushup
         (Blas.query_union "//SPEAKER"))
        .Blas.starts
    with
    | s :: _ -> s
    | [] -> Alcotest.fail "no SPEAKER in the generated play"
  in
  Local.with_cluster ~shards:1 ~replicas:1
    ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
    (fun t ->
      let n_clients = 4 and per_client = 10 in
      let failures = Atomic.make 0 in
      let storm k =
        C.with_client (Local.port t) (fun c ->
            for i = 0 to per_client - 1 do
              match
                C.update c ~doc:"plays"
                  (P.Retext
                     { start = target; data = Some (Printf.sprintf "v%d-%d" k i) })
              with
              | P.Ok_payload _ -> ()
              | _ -> Atomic.incr failures
            done)
      in
      let threads =
        List.init n_clients (fun k -> Thread.create (fun () -> storm k) ())
      in
      List.iter Thread.join threads;
      Test_util.check_int "every routed update acked" 0 (Atomic.get failures);
      (* Quiesced (each ack implies the replica fan-out completed):
         primary and replica must serve byte-identical answers for a
         value predicate on the contested node, whichever write won. *)
      let primary_port = Local.endpoint_port t 0 0
      and replica_port = Local.endpoint_port t 0 1 in
      let answers port q =
        C.with_client port (fun c ->
            expect_ok "direct query"
              (C.query c ~doc:"plays" ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms q))
      in
      let empty = answers primary_port "//SPEAKER = \"never-written\"" in
      let winners = ref 0 in
      for k = 0 to n_clients - 1 do
        for i = 0 to per_client - 1 do
          let q = Printf.sprintf "//SPEAKER = \"v%d-%d\"" k i in
          let on_primary = answers primary_port q in
          Test_util.check_string ("replica agrees on " ^ q) on_primary
            (answers replica_port q);
          if on_primary <> empty then incr winners
        done
      done;
      Test_util.check_int "exactly one write won on the primary" 1 !winners)

(* ------------------------------------------------------------------ *)
(* Hedged requests: a slow primary loses to its replica                *)

let hedged_request_beats_slow_primary () =
  let plays = small_plays () in
  let local = Blas.index_of_tree plays in
  let server_config =
    { Srv.default_config with Srv.allow_sleep = true; max_inflight = 1 }
  in
  let router_config =
    { Router.default_config with Router.hedge = Router.Hedge_ms 2.0 }
  in
  Local.with_cluster ~shards:1 ~replicas:1 ~server_config ~router_config
    ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
    (fun t ->
      let q = "//SPEECH[SPEAKER]/LINE" in
      let expected =
        expected_payload local ~translator:Blas.Pushup ~engine:Blas.Rdbms q
      in
      (* Pin the primary's only worker in a 300 ms nap... *)
      let primary_port = Local.endpoint_port t 0 0 in
      let flooder =
        Thread.create
          (fun () ->
            try C.with_client primary_port (fun c -> ignore (C.sleep c 300))
            with _ -> ())
          ()
      in
      Thread.delay 0.05;
      (* ...and watch the 2 ms hedge win on the replica. *)
      let t0 = Unix.gettimeofday () in
      let got =
        C.with_client (Local.port t) (fun c ->
            expect_ok "hedged query"
              (C.query c ~doc:"plays" ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms q))
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Test_util.check_string "hedged answer is byte-identical" expected got;
      Test_util.check_bool
        (Printf.sprintf "answered before the nap ends (%.0f ms)"
           (elapsed *. 1000.))
        true (elapsed < 0.25);
      let reg = Router.registry (Local.router t) in
      Test_util.check_bool "hedge fired" true
        (counter_value reg "router.hedge.fired" >= 1);
      Test_util.check_bool "hedge won" true
        (counter_value reg "router.hedge.won" >= 1);
      Thread.join flooder)

(* The hedge's losing leg is closed, never pooled: its reply lands after
   the nap, and a pooled loser would hand that stale frame to the next
   read on the primary — a different query shows it. *)
let hedge_loser_never_reused () =
  let plays = small_plays () in
  let local = Blas.index_of_tree plays in
  let server_config =
    { Srv.default_config with Srv.allow_sleep = true; max_inflight = 1 }
  in
  let router_config =
    { Router.default_config with Router.hedge = Router.Hedge_ms 2.0 }
  in
  Local.with_cluster ~shards:1 ~replicas:1 ~server_config ~router_config
    ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
    (fun t ->
      let expected q =
        expected_payload local ~translator:Blas.Pushup ~engine:Blas.Rdbms q
      in
      let routed c q =
        expect_ok q
          (C.query c ~doc:"plays" ~translator:Blas.Pushup ~engine:Blas.Rdbms q)
      in
      let primary_port = Local.endpoint_port t 0 0 in
      let flooder =
        Thread.create
          (fun () ->
            try C.with_client primary_port (fun c -> ignore (C.sleep c 300))
            with _ -> ())
          ()
      in
      Thread.delay 0.05;
      C.with_client (Local.port t) (fun c ->
          let q = "//SPEECH[SPEAKER]/LINE" in
          Test_util.check_string "hedged answer" (expected q) (routed c q);
          let reg = Router.registry (Local.router t) in
          Test_util.check_bool "hedge won" true
            (counter_value reg "router.hedge.won" >= 1);
          (* Wait out the nap: the primary now answers the loser's
             query onto a closed socket. *)
          Thread.join flooder;
          Thread.delay 0.1;
          let other = "/PLAYS/PLAY/ACT/SCENE/SPEECH/SPEAKER" in
          for i = 1 to 20 do
            Test_util.check_string
              (Printf.sprintf "read %d after the nap" i)
              (expected other) (routed c other)
          done))

(* A scattered read fails over per chunk: with one shard's primary
   stopped, the chunks it held answer from its replica and the merged
   answer stays byte-identical. *)
let scatter_fails_over_per_chunk () =
  let plays = small_plays () and auction = small_auction () in
  let local_auction = Blas.index_of_tree auction in
  Local.with_cluster ~shards:2 ~replicas:1
    ~partition:("auction", auction, 4)
    ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
    (fun t ->
      let victim =
        match
          List.find_opt
            (fun k ->
              List.exists
                (fun d -> String.starts_with ~prefix:"auction#" d)
                (Local.shard_docs t k))
            [ 0; 1 ]
        with
        | Some k -> k
        | None -> Alcotest.fail "no shard holds an auction chunk"
      in
      C.with_client (Local.port t) (fun c ->
          let check_all label =
            List.iter
              (fun translator ->
                List.iter
                  (fun engine ->
                    List.iter
                      (fun q ->
                        Test_util.check_string
                          (Printf.sprintf "%s: %s (%s on %s)" label q
                             (Blas.translator_name translator)
                             (Blas.engine_name engine))
                          (expected_payload local_auction ~translator ~engine q)
                          (expect_ok q
                             (C.query c ~doc:"auction" ~translator ~engine q)))
                      auction_queries)
                  engines)
              translators
          in
          (* Warm the pools first, so that both a pooled connection to
             the stopped primary and a refused connect fail over. *)
          check_all "both primaries up";
          Local.stop_primary t victim;
          check_all "one primary stopped"))

(* BUSY is a soft reply: with hedging off, an overloaded primary's BUSY
   still fails over to the idle replica, which answers. *)
let busy_fails_over_without_hedging () =
  let plays = small_plays () in
  let local = Blas.index_of_tree plays in
  let server_config =
    {
      Srv.default_config with
      Srv.allow_sleep = true;
      max_inflight = 1;
      queue_depth = 0;
    }
  in
  let router_config =
    { Router.default_config with Router.hedge = Router.Hedge_off }
  in
  Local.with_cluster ~shards:1 ~replicas:1 ~server_config ~router_config
    ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
    (fun t ->
      let q = "//SPEECH[SPEAKER]/LINE" in
      let primary_port = Local.endpoint_port t 0 0 in
      let flooder =
        Thread.create
          (fun () ->
            try C.with_client primary_port (fun c -> ignore (C.sleep c 300))
            with _ -> ())
          ()
      in
      Thread.delay 0.05;
      (* The pinned primary has no queue slot: it answers BUSY at once. *)
      (match
         C.with_client primary_port (fun c ->
             C.query c ~doc:"plays" ~translator:Blas.Pushup ~engine:Blas.Rdbms
               q)
       with
      | P.Busy -> ()
      | reply ->
        Alcotest.failf "pinned primary answered %s" (P.reply_to_string reply));
      let t0 = Unix.gettimeofday () in
      let got =
        C.with_client (Local.port t) (fun c ->
            expect_ok "routed read"
              (C.query c ~doc:"plays" ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms q))
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Test_util.check_string "replica's answer is byte-identical"
        (expected_payload local ~translator:Blas.Pushup ~engine:Blas.Rdbms q)
        got;
      Test_util.check_bool
        (Printf.sprintf "answered before the nap ends (%.0f ms)"
           (elapsed *. 1000.))
        true (elapsed < 0.25);
      Test_util.check_int "no hedge fired" 0
        (counter_value (Router.registry (Local.router t)) "router.hedge.fired");
      Thread.join flooder)

(* [select] cannot wait on a descriptor >= FD_SETSIZE (1024): with the
   low descriptors held, every back-end leg lands above it and the
   router reads each with a blocking read instead.  Scattered reads and
   the replica fan-out stay exact. *)
let legs_past_fd_setsize () =
  let hog = ref [] in
  let release () =
    List.iter Unix.close !hog;
    hog := []
  in
  Fun.protect ~finally:release @@ fun () ->
  match
    for _ = 1 to 1100 do
      hog := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !hog
    done
  with
  | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
    (* A descriptor limit this low cannot reach FD_SETSIZE. *)
    ()
  | () ->
    let plays = small_plays () and auction = small_auction () in
    let local_auction = Blas.index_of_tree auction in
    Local.with_cluster ~shards:2 ~replicas:1
      ~partition:("auction", auction, 4)
      ~docs:[ ("plays", fun () -> Blas.index_of_tree plays) ]
      (fun t ->
        C.with_client (Local.port t) (fun c ->
            List.iter
              (fun q ->
                Test_util.check_string ("scattered " ^ q)
                  (expected_payload local_auction ~translator:Blas.Pushup
                     ~engine:Blas.Rdbms q)
                  (expect_ok q
                     (C.query c ~doc:"auction" ~translator:Blas.Pushup
                        ~engine:Blas.Rdbms q)))
              auction_queries;
            (* A routed update reaches the replica through the same
               blocking reads. *)
            let marker cc =
              expect_ok "//MARKER"
                (C.query cc ~doc:"plays" ~translator:Blas.Pushup
                   ~engine:Blas.Rdbms "//MARKER")
            in
            let before = marker c in
            ignore
              (expect_ok "routed update"
                 (C.update c ~doc:"plays"
                    (P.Insert
                       { parent = 1; pos = 0; xml = "<MARKER>x</MARKER>" })));
            let after = marker c in
            Test_util.check_bool "the router sees the marker" true
              (after <> before);
            let shard =
              if List.mem "plays" (Local.shard_docs t 0) then 0 else 1
            in
            Test_util.check_string "replica converged" after
              (C.with_client (Local.endpoint_port t shard 1) marker)))

(* ------------------------------------------------------------------ *)
(* Breaker: a dead shard answers BUSY, live shards stay exact          *)

let dead_shard_degrades_to_busy () =
  let plays = small_plays () and auction = small_auction () in
  let local_auction = Blas.index_of_tree auction in
  Local.with_cluster ~shards:2
    ~docs:
      [
        ("plays", fun () -> Blas.index_of_tree plays);
        ("auction", fun () -> Blas.index_of_tree auction);
      ]
    (fun t ->
      let victim_shard =
        match
          List.find_opt
            (fun k -> List.mem "plays" (Local.shard_docs t k))
            [ 0; 1 ]
        with
        | Some k -> k
        | None -> Alcotest.fail "plays not hosted anywhere"
      in
      Local.stop_primary t victim_shard;
      C.with_client (Local.port t) (fun c ->
          (* Queries for the dead shard's document fail over to nothing:
             ERR while the breaker counts failures, then BUSY once it
             opens (shard-aware admission). *)
          let saw_busy = ref false in
          for _ = 1 to 10 do
            if not !saw_busy then
              match
                C.query c ~doc:"plays" ~translator:Blas.Pushup
                  ~engine:Blas.Rdbms "//LINE"
              with
              | P.Busy -> saw_busy := true
              | P.Err _ -> ()
              | reply ->
                Alcotest.failf "dead shard answered %s"
                  (P.reply_to_string reply)
          done;
          Test_util.check_bool "breaker opened to BUSY" true !saw_busy;
          (* Documents on the surviving shard still answer, still
             byte-identical — degraded but correct. *)
          if List.mem "auction" (Local.shard_docs t (1 - victim_shard)) then
            let q = "/site/regions//item/description" in
            Test_util.check_string "survivor still exact"
              (expected_payload local_auction ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms q)
              (expect_ok "survivor"
                 (C.query c ~doc:"auction" ~translator:Blas.Pushup
                    ~engine:Blas.Rdbms q))))

(* ------------------------------------------------------------------ *)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("shard map: hashing, chunk names, assemble", shard_map_units);
      ("merge: map, union, payload round-trip", merge_units);
      ("partition: chunk answers merge exactly", partition_merge_exact);
      ("partition: chunk names follow document order", partition_chunk_order);
      ("live: fig10 byte-identity (hash partitioning)", router_byte_identity);
      ( "live: fig10 byte-identity (range partitioning)",
        router_byte_identity_range );
      ("live: replica update fan-out", replica_update_fanout);
      ( "live: concurrent same-doc updates keep the replica ordered",
        replica_ordering_under_concurrency );
      ("live: hedged request beats a slow primary", hedged_request_beats_slow_primary);
      ("live: dead shard degrades to BUSY, survivors exact", dead_shard_degrades_to_busy);
      ("live: a hedge loser's connection is never reused", hedge_loser_never_reused);
      ("live: a scattered read fails over per chunk", scatter_fails_over_per_chunk);
      ("live: BUSY fails over to the replica with hedging off", busy_fails_over_without_hedging);
      ("live: legs past FD_SETSIZE are read blocking", legs_past_fd_setsize);
    ]
  @ [ scatter_gather_property ]
