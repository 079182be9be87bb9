(** Tests for the query service layer: wire-protocol grammar, the
    reader–writer lock, the socket-free {!Blas_server.Service}, and a
    live in-process TCP server — protocol robustness (oversized frames,
    garbage, half-closed sockets, mid-query disconnects), admission
    control (BUSY), deadlines (TIMEOUT), a multi-client soak against
    live edits, and the graceful drain.  The cases that exercise the
    shared serving front end (garbage lines, the HTTP listener, drain,
    SHUTDOWN, the header rule, accepting after EMFILE) run against both
    roles: a server and a {!Blas_cluster.Local} cluster's router.

    Every live test binds port 0 (ephemeral), so the suite runs in
    parallel with anything. *)

module P = Blas_server.Proto
module Srv = Blas_server.Server
module C = Blas_server.Client
module Svc = Blas_server.Service
module Rwlock = Blas_server.Rwlock
module Local = Blas_cluster.Local
module Router = Blas_cluster.Router

let jobs =
  match Sys.getenv_opt "BLAS_TEST_JOBS" with
  | None | Some "" -> 2
  | Some s -> (
    match List.filter_map int_of_string_opt (String.split_on_char ',' s) with
    | j :: _ -> j
    | [] -> 2)

(* ------------------------------------------------------------------ *)
(* Protocol grammar                                                   *)

let roundtrip_commands =
  [
    P.Ping;
    P.List_docs;
    P.Stats;
    P.Quit;
    P.Shutdown;
    P.Deadline 250;
    P.Sleep 10;
    P.Query
      {
        doc = "plays";
        translator = Blas.Split;
        engine = Blas.Twig;
        xpath = "/PLAYS/PLAY/ACT/SCENE[TITLE = \"x y\"]//LINE";
      };
    P.Update
      {
        doc = "plays";
        edit = P.Insert { parent = 7; pos = 0; xml = "<a>x y</a>" };
      };
    P.Update { doc = "plays"; edit = P.Delete { start = 42 } };
    P.Update { doc = "d"; edit = P.Retext { start = 3; data = Some "x y" } };
    P.Update { doc = "d"; edit = P.Retext { start = 3; data = None } };
    P.Stats_timeseries;
    P.Metrics `Prom;
    P.Metrics `Json;
    P.Trace_hdr;
    P.Trace_get "t0000beef-7";
    P.Trace_id "t0000beef-8";
    P.Trace_bg "t0000beef-8-s2";
    P.Hello "router";
    P.Updatex
      {
        doc = "plays";
        edit = P.Insert { parent = 7; pos = 1; xml = "<a>x y</a>" };
      };
    P.Updatex { doc = "plays"; edit = P.Delete { start = 42 } };
    P.Inval { doc = "plays"; payload = "retext:3:-" };
  ]

let proto_roundtrip () =
  List.iter
    (fun cmd ->
      match P.parse_command (P.command_to_line cmd) with
      | Ok parsed ->
        Test_util.check_bool (P.command_to_line cmd) true (parsed = cmd)
      | Error msg -> Alcotest.failf "%s: %s" (P.command_to_line cmd) msg)
    roundtrip_commands;
  (* Case-insensitive verbs, tolerated \r, surrounding whitespace. *)
  Test_util.check_bool "lowercase verb" true
    (P.parse_command "ping" = Ok P.Ping);
  Test_util.check_bool "trailing cr" true (P.parse_command "PING\r" = Ok P.Ping);
  (* [auto] is an alias: it parses to Auto2, which prints as auto2. *)
  let auto2 =
    P.Query
      { doc = "d"; translator = Blas.Auto2; engine = Blas.Rdbms; xpath = "//a" }
  in
  Test_util.check_bool "auto alias" true
    (P.parse_command "QUERY d auto rdbms //a" = Ok auto2);
  Test_util.check_string "auto2 on the wire" "QUERY d auto2 rdbms //a"
    (P.command_to_line auto2)

let proto_rejects_garbage () =
  List.iter
    (fun line ->
      match P.parse_command line with
      | Ok cmd ->
        Alcotest.failf "%S parsed as %s" line (P.command_to_line cmd)
      | Error msg -> Test_util.check_bool line true (String.length msg > 0))
    [
      "";
      "   ";
      "FROBNICATE";
      "QUERY plays pushup";
      "QUERY plays pushup rdbms";
      "QUERY plays nosuch rdbms //a";
      "QUERY plays pushup nosuch //a";
      "UPDATE plays";
      "UPDATE plays INSERT 1";
      "UPDATE plays INSERT x 0 <a/>";
      "UPDATE plays DELETE";
      "UPDATE plays DELETE 1 2";
      "UPDATE plays EXPLODE 1";
      "DEADLINE";
      "DEADLINE -5";
      "SLEEP x";
      "\x00\x01\xff binary junk";
    ]

(* ------------------------------------------------------------------ *)
(* The reader-writer lock                                              *)

let rwlock_discipline () =
  let lock = Rwlock.create () in
  (* Two readers overlap: both must be inside before either leaves. *)
  let both_inside = ref false in
  let inside = Atomic.make 0 in
  let reader () =
    Rwlock.read lock (fun () ->
        ignore (Atomic.fetch_and_add inside 1);
        let deadline = Unix.gettimeofday () +. 2.0 in
        while Atomic.get inside < 2 && Unix.gettimeofday () < deadline do
          Thread.yield ()
        done;
        if Atomic.get inside >= 2 then both_inside := true)
  in
  let r1 = Thread.create reader () and r2 = Thread.create reader () in
  Thread.join r1;
  Thread.join r2;
  Test_util.check_bool "readers overlap" true !both_inside;
  (* Writers are exclusive: concurrent writers never overlap. *)
  let in_write = Atomic.make 0 and overlapped = ref false in
  let writer () =
    Rwlock.write lock (fun () ->
        if Atomic.fetch_and_add in_write 1 > 0 then overlapped := true;
        Thread.delay 0.005;
        ignore (Atomic.fetch_and_add in_write (-1)))
  in
  let ws = List.init 4 (fun _ -> Thread.create writer ()) in
  List.iter Thread.join ws;
  Test_util.check_bool "writers exclusive" false !overlapped;
  (* An exception inside a section releases the lock. *)
  (try Rwlock.write lock (fun () -> failwith "boom") with Failure _ -> ());
  (try Rwlock.read lock (fun () -> failwith "boom") with Failure _ -> ());
  Rwlock.write lock (fun () -> ());
  Rwlock.read lock (fun () -> ());
  Test_util.check_bool "lock released after exceptions" true true

(* Writer preference bounds starvation: under a continuous stream of
   overlapping readers (4 threads, 2 ms sections, immediate
   reacquisition — the lock is read-held essentially always), a writer
   must still get in within roughly one reader section, because new
   readers queue behind it.  A reader-preferring lock would hold the
   writer out for the whole stream. *)
let rwlock_writer_starvation_bound () =
  let lock = Rwlock.create () in
  let running = Atomic.make true in
  let writer_queued = Atomic.make false in
  let overtakers = Atomic.make 0 in
  let reader () =
    while Atomic.get running do
      let queued_before = Atomic.get writer_queued in
      Rwlock.read lock (fun () ->
          if queued_before && Atomic.get writer_queued then
            Atomic.incr overtakers;
          Thread.delay 0.002)
    done
  in
  let readers = List.init 4 (fun _ -> Thread.create reader ()) in
  Thread.delay 0.05;
  Atomic.set writer_queued true;
  let t0 = Unix.gettimeofday () in
  Rwlock.write lock (fun () -> ());
  let wait = Unix.gettimeofday () -. t0 in
  Atomic.set writer_queued false;
  Atomic.set running false;
  List.iter Thread.join readers;
  Test_util.check_bool
    (Printf.sprintf "writer admitted within bound (waited %.0f ms)"
       (wait *. 1000.))
    true (wait < 0.5);
  (* Readers that saw the writer queued before acquiring must not slip
     in ahead of it (a tiny tolerance for flag/acquire races). *)
  Test_util.check_bool
    (Printf.sprintf "readers queue behind a waiting writer (%d overtook)"
       (Atomic.get overtakers))
    true
    (Atomic.get overtakers <= 2)

(* ------------------------------------------------------------------ *)
(* Service equivalence (no sockets)                                    *)

let small_plays () = Blas_datagen.Shakespeare.generate ~plays:1 ()

let small_auction () = Blas_datagen.Auction.generate ~scale:4 ()

let translators =
  [ Blas.D_labeling; Blas.Split; Blas.Pushup; Blas.Unfold; Blas.Auto2 ]

let engines = [ Blas.Rdbms; Blas.Twig ]

(* The Figure 10 queries for the two datasets the live tests host. *)
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

let service_matches_inprocess () =
  let tree = small_plays () in
  let hosted = Blas.index_of_tree tree in
  let local = Blas.index_of_tree tree in
  let service = Svc.create ~cache:true [ ("plays", hosted) ] in
  let token = Blas.Par.Token.create () in
  List.iter
    (fun translator ->
      List.iter
        (fun engine ->
          List.iter
            (fun q ->
              let expected =
                Svc.payload_of_report
                  (Blas.run_union local ~engine ~translator
                     (Blas.query_union q))
              in
              match Svc.query service ~token ~doc:"plays" ~translator ~engine q with
              | P.Ok_payload payload ->
                Test_util.check_string
                  (Printf.sprintf "%s (%s on %s)" q
                     (Blas.translator_name translator)
                     (Blas.engine_name engine))
                  expected payload
              | reply -> Alcotest.failf "%s: %s" q (P.reply_to_string reply))
            plays_queries)
        engines)
    translators;
  (* Unknown documents and bad queries answer ERR, not an exception. *)
  (match
     Svc.query service ~token ~doc:"nosuch" ~translator:Blas.Pushup
       ~engine:Blas.Rdbms "//a"
   with
  | P.Err _ -> ()
  | reply -> Alcotest.failf "unknown doc: %s" (P.reply_to_string reply));
  match
    Svc.query service ~token ~doc:"plays" ~translator:Blas.Pushup
      ~engine:Blas.Rdbms "///["
  with
  | P.Err _ -> ()
  | reply -> Alcotest.failf "bad query: %s" (P.reply_to_string reply)

(* An UPDATE reply reports the gap budget from the label columns, in
   memory and on a database file.  The document model is only ever a
   view of those columns, so no write path can leave one built. *)
let update_builds_no_model () =
  let xml = "<r><a>x</a><b>y</b></r>" in
  Test_util.with_temp_db (fun path ->
      Blas.Database.create ~path (Blas.index xml);
      let disk = Blas.Database.open_ ~mode:Blas.Database.Rw ~path () in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close disk)
        (fun () ->
          let docs = [ ("mem", Blas.index xml); ("disk", disk) ] in
          let service = Svc.create docs in
          List.iter
            (fun (doc, _) ->
              List.iter
                (fun edit ->
                  match Svc.update service ~doc edit with
                  | P.Ok_payload _ -> ()
                  | reply -> Alcotest.failf "%s: %s" doc (P.reply_to_string reply))
                [
                  P.Retext { start = 2; data = Some "z" };
                  P.Delete { start = 5 };
                  P.Insert { parent = 1; pos = 0; xml = "<c/>" };
                ])
            docs;
          (* STATS shows what the commits wrote of the catalog chain. *)
          let stats = Blas_obs.Json.to_string (Svc.docs_json service) in
          let d = Option.get (Blas.Storage.disk disk) in
          let s = d.Blas.Storage.dk_stats () in
          Test_util.check_bool "three commits wrote chain pages" true
            (s.Blas.Storage.dstat_catalog_writes >= 3);
          List.iter
            (fun (key, v) ->
              Test_util.check_bool key true
                (Test_util.contains stats (Printf.sprintf "\"%s\":%d" key v)))
            [
              ("catalog_pages", s.Blas.Storage.dstat_catalog_pages);
              ("catalog_writes", s.Blas.Storage.dstat_catalog_writes);
            ]))

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)

let count_answers storage q =
  List.length
    (Blas.run_union storage ~engine:Blas.Rdbms ~translator:Blas.Pushup
       (Blas.query_union q))
      .Blas.starts

let with_group_commit_db f =
  let path = Filename.temp_file "blas_test_gc" ".blasdb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      Blas.Database.create ~page_size:1024 ~path
        (Blas.index_of_tree (small_plays ()));
      f path)

(* Commits inside the window share WAL fsyncs.  The edits are applied
   directly on the store (deferring each commit into the overlay) and
   made durable by one explicit sync, so the batch size is fixed by
   construction rather than by thread timing — the service path only
   batches when updates overlap inside the window, which a loaded
   single-core runner cannot guarantee.  The concurrent service path is
   exercised by the crash-safety test below. *)
let group_commit_batches_fsyncs () =
  with_group_commit_db @@ fun path ->
  let disk =
    Blas.Database.open_ ~cache_pages:32 ~mode:Blas.Database.Rw ~path ()
  in
  let dk =
    match Blas.Storage.disk disk with
    | Some d -> d
    | None -> Alcotest.fail "not disk-backed"
  in
  dk.Blas.Storage.dk_set_group_commit ~window_ms:50.;
  for _ = 1 to 4 do
    ignore
      (Blas.Update.insert_subtree disk ~parent:1 ~pos:0
         (Blas_xml.Dom.parse "<zz>x</zz>"))
  done;
  (* All four commits are parked in the overlay; one sync flushes them
     with a single WAL fsync. *)
  dk.Blas.Storage.dk_sync_commits ();
  Test_util.check_int "all updates applied" 4 (count_answers disk "//zz");
  let io = dk.Blas.Storage.dk_io () in
  Test_util.check_bool "commits deferred" true
    (io.Blas_disk.Store.io_group_commits >= 4);
  Test_util.check_bool
    (Printf.sprintf "fsyncs saved by batching (%d)"
       io.Blas_disk.Store.io_group_saved_fsyncs)
    true
    (io.Blas_disk.Store.io_group_saved_fsyncs >= 3);
  dk.Blas.Storage.dk_close ()

(* Group-committed updates survive a crash: the reply only returns
   after the (batched) fsync, so everything acknowledged must replay. *)
let group_commit_crash_safety () =
  with_group_commit_db @@ fun path ->
  let disk =
    Blas.Database.open_ ~cache_pages:32 ~mode:Blas.Database.Rw ~path ()
  in
  let svc = Svc.create ~cache:false ~group_commit_ms:50. [ ("d", disk) ] in
  let writers =
    List.init 6 (fun _ ->
        Thread.create
          (fun () ->
            ignore
              (Svc.update svc ~doc:"d"
                 (P.Insert { parent = 1; pos = 0; xml = "<zz>x</zz>" })))
          ())
  in
  List.iter Thread.join writers;
  (match Blas.Storage.disk disk with
  | Some d -> d.Blas.Storage.dk_crash ()
  | None -> Alcotest.fail "not disk-backed");
  let reopened =
    Blas.Database.open_ ~cache_pages:32 ~mode:Blas.Database.Rw ~path ()
  in
  Test_util.check_int "acknowledged updates replayed" 6
    (count_answers reopened "//zz");
  match Blas.Storage.disk reopened with
  | Some d -> d.Blas.Storage.dk_close ()
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Live server helpers                                                 *)

let live_config =
  {
    Srv.default_config with
    port = 0;
    jobs;
    allow_sleep = true;
    default_deadline_ms = None;
  }

let with_live ?(config = live_config) docs f =
  Srv.with_server { config with Srv.port = 0 } ~docs (fun srv ->
      f srv (Srv.port srv))

let expect_ok name = function
  | P.Ok_payload p -> p
  | reply -> Alcotest.failf "%s: expected OK, got %s" name (P.reply_to_string reply)

(* The serving front end is shared by [blas serve] and [blas route]:
   the front-end cases below run once per role.  The router role is a
   one-shard {!Local} cluster whose shard allows SLEEP on one worker. *)
type front = {
  port : int;
  metrics_port : int option;
  slow : C.t -> int -> P.reply;
      (** an admitted request answering OK after about [ms] *)
  stop : unit -> unit;  (** the role's graceful drain *)
  wait : unit -> unit;
  teardown : unit -> unit;  (** stops everything the role started *)
}

type role = {
  role : string;  (** the metric prefix *)
  start : ?metrics:bool -> (string * (unit -> Blas.Storage.t)) list -> front;
}

let server_role =
  let start ?(metrics = false) docs =
    let srv =
      Srv.start
        {
          live_config with
          Srv.metrics_port = (if metrics then Some 0 else None);
        }
        ~docs:(List.map (fun (name, build) -> (name, build ())) docs)
    in
    {
      port = Srv.port srv;
      metrics_port = Srv.metrics_port srv;
      slow = (fun c ms -> C.sleep c ms);
      stop = (fun () -> Srv.stop srv);
      wait = (fun () -> Srv.wait srv);
      teardown = (fun () -> Srv.stop srv);
    }
  in
  { role = "server"; start }

let router_role =
  let start ?(metrics = false) docs =
    let cluster =
      Local.start ~shards:1
        ~server_config:{ live_config with Srv.max_inflight = 1 }
        ~router_config:
          {
            Router.default_config with
            Router.metrics_port = (if metrics then Some 0 else None);
          }
        ~docs ()
    in
    let router = Local.router cluster in
    (* A routed QUERY queued on the shard behind a direct SLEEP. *)
    let slow c ms =
      let holder =
        Thread.create
          (fun () ->
            C.with_client (Local.endpoint_port cluster 0 0) (fun s ->
                ignore (C.sleep s ms)))
          ()
      in
      Thread.delay 0.02;
      let doc = List.hd (Local.shard_docs cluster 0) in
      let reply =
        C.query c ~doc ~translator:Blas.Pushup ~engine:Blas.Rdbms "//a"
      in
      Thread.join holder;
      reply
    in
    {
      port = Router.port router;
      metrics_port = Router.metrics_port router;
      slow;
      stop = (fun () -> Router.stop router);
      wait = (fun () -> Router.wait router);
      teardown = (fun () -> Local.stop cluster);
    }
  in
  { role = "router"; start }

let with_front ?metrics role docs f =
  let fe = role.start ?metrics docs in
  Fun.protect ~finally:fe.teardown (fun () -> f fe)

let plays_thunk = [ ("plays", fun () -> Blas.index_of_tree (small_plays ())) ]

(* ------------------------------------------------------------------ *)
(* Live: basics and byte-identical concurrent queries                  *)

let live_basics () =
  let docs =
    [
      ("auction", Blas.index_of_tree (small_auction ()));
      ("plays", Blas.index_of_tree (small_plays ()));
    ]
  in
  with_live docs (fun srv port ->
      C.with_client port (fun c ->
          C.ping c;
          Test_util.check_bool "list" true
            (C.list_docs c = [ "auction"; "plays" ]);
          let stats = C.stats c in
          Test_util.check_bool "stats mentions phase" true
            (String.length stats > 0
            && String.index_opt stats '{' = Some 0);
          (* DEADLINE is consumed by the next command only. *)
          let r1 = C.sleep ~deadline_ms:1 c 200 in
          Test_util.check_bool "deadline fires" true (r1 = P.Timeout);
          let r2 = C.sleep c 1 in
          Test_util.check_bool "deadline was one-shot" true
            (match r2 with P.Ok_payload _ -> true | _ -> false));
      ignore srv)

let live_concurrent_queries () =
  let plays_tree = small_plays () and auction_tree = small_auction () in
  let docs =
    [
      ("plays", Blas.index_of_tree plays_tree);
      ("auction", Blas.index_of_tree auction_tree);
    ]
  in
  (* Expected payloads from fresh sequential in-process runs. *)
  let locals =
    [
      ("plays", Blas.index_of_tree plays_tree, plays_queries);
      ("auction", Blas.index_of_tree auction_tree, auction_queries);
    ]
  in
  let expected =
    List.concat_map
      (fun (doc, local, queries) ->
        List.concat_map
          (fun q ->
            List.concat_map
              (fun translator ->
                List.map
                  (fun engine ->
                    ( (doc, q, translator, engine),
                      Svc.payload_of_report
                        (Blas.run_union local ~engine ~translator
                           (Blas.query_union q)) ))
                  engines)
              [ Blas.Pushup; Blas.Auto2 ])
          queries)
      locals
  in
  with_live docs (fun _srv port ->
      let failures = ref [] in
      let failures_lock = Mutex.create () in
      let fail msg =
        Mutex.lock failures_lock;
        failures := msg :: !failures;
        Mutex.unlock failures_lock
      in
      let client_thread k =
        C.with_client port (fun c ->
            (* Each client walks the whole workload from a different
               offset, so distinct queries overlap in flight. *)
            let items = Array.of_list expected in
            let n = Array.length items in
            for i = 0 to n - 1 do
              let (doc, q, translator, engine), want =
                items.((i + (k * 7)) mod n)
              in
              match C.query c ~doc ~translator ~engine q with
              | P.Ok_payload got ->
                if got <> want then
                  fail (Printf.sprintf "%s %s: divergent payload" doc q)
              | reply ->
                fail
                  (Printf.sprintf "%s %s: %s" doc q (P.reply_to_string reply))
            done)
      in
      let clients = List.init 4 (fun k -> Thread.create client_thread k) in
      List.iter Thread.join clients;
      match !failures with
      | [] -> ()
      | msgs -> Alcotest.failf "%d failures: %s" (List.length msgs) (List.hd msgs))

(* ------------------------------------------------------------------ *)
(* Live: admission control and deadlines                               *)

let live_busy () =
  let docs = [ ("plays", Blas.index_of_tree (small_plays ())) ] in
  let config = { live_config with Srv.max_inflight = 1; queue_depth = 0 } in
  with_live ~config docs (fun _srv port ->
      let slow = C.connect port in
      let slow_reply = ref P.Busy in
      let holder =
        Thread.create (fun () -> slow_reply := C.sleep slow 600) ()
      in
      (* Let the slow request occupy the only worker. *)
      Thread.delay 0.15;
      let t0 = Unix.gettimeofday () in
      C.with_client port (fun c ->
          match C.sleep c 10 with
          | P.Busy ->
            Test_util.check_bool "BUSY is immediate, not a hang" true
              (Unix.gettimeofday () -. t0 < 0.4)
          | reply -> Alcotest.failf "expected BUSY, got %s" (P.reply_to_string reply));
      Thread.join holder;
      C.close slow;
      Test_util.check_bool "slow request still finished" true
        (match !slow_reply with P.Ok_payload _ -> true | _ -> false))

let live_timeout () =
  let docs = [ ("plays", Blas.index_of_tree (small_plays ())) ] in
  with_live docs (fun _srv port ->
      C.with_client port (fun c ->
          let t0 = Unix.gettimeofday () in
          (match C.sleep ~deadline_ms:50 c 500 with
          | P.Timeout -> ()
          | reply ->
            Alcotest.failf "expected TIMEOUT, got %s" (P.reply_to_string reply));
          Test_util.check_bool "timeout well before the sleep ends" true
            (Unix.gettimeofday () -. t0 < 0.4);
          (* An already-expired deadline answers TIMEOUT without
             touching a worker for long. *)
          match C.sleep ~deadline_ms:0 c 500 with
          | P.Timeout -> ()
          | reply ->
            Alcotest.failf "expected immediate TIMEOUT, got %s"
              (P.reply_to_string reply)))

(* ------------------------------------------------------------------ *)
(* Live: protocol robustness                                           *)

let raw_socket port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let live_oversized_frame () =
  let docs = [ ("plays", Blas.index_of_tree (small_plays ())) ] in
  with_live docs (fun _srv port ->
      let fd = raw_socket port in
      let io = P.Io.of_fd fd in
      (* 72 KiB with no terminator: over max_frame.  The server may
         reset the connection while we are still sending. *)
      let junk = String.make 72_000 'a' in
      (try P.Io.write io junk
       with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
      (match P.read_reply io with
      | Ok (P.Err msg) ->
        Test_util.check_bool "names the frame bound" true
          (String.length msg > 0)
      | Ok reply -> Alcotest.failf "expected ERR, got %s" (P.reply_to_string reply)
      | Error _ ->
        (* Connection already torn down — also an acceptable rejection. *)
        ());
      Unix.close fd;
      (* The server survived. *)
      C.with_client port (fun c -> C.ping c))

let live_garbage_keeps_connection role () =
  with_front role plays_thunk (fun fe ->
      let fd = raw_socket fe.port in
      let io = P.Io.of_fd fd in
      P.Io.write io "\x00\x01\xfe binary garbage\n";
      (match P.read_reply io with
      | Ok (P.Err _) -> ()
      | other ->
        Alcotest.failf "expected ERR for garbage, got %s"
          (match other with
          | Ok r -> P.reply_to_string r
          | Error e -> "error " ^ e));
      (* Same connection still answers. *)
      P.Io.write io "PING\n";
      (match P.read_reply io with
      | Ok (P.Ok_payload "pong") -> ()
      | _ -> Alcotest.fail "connection did not survive garbage");
      Unix.close fd)

let live_half_close_and_disconnect () =
  let hosted = Blas.index_of_tree (small_plays ()) in
  let root_start =
    List.fold_left
      (fun acc (n : Blas_xpath.Doc.node) -> min acc n.start)
      max_int (Blas.Storage.doc hosted).Blas_xpath.Doc.all
  in
  let docs = [ ("plays", hosted) ] in
  with_live docs (fun _srv port ->
      (* Half-close: send side shut down, reply still readable. *)
      let fd = raw_socket port in
      let io = P.Io.of_fd fd in
      P.Io.write io "PING\n";
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match P.read_reply io with
      | Ok (P.Ok_payload "pong") -> ()
      | _ -> Alcotest.fail "no reply after half-close");
      Unix.close fd;
      (* Disconnect mid-query: the read lock must not leak — an UPDATE
         right after must go through. *)
      let fd = raw_socket port in
      P.Io.write (P.Io.of_fd fd) "QUERY plays pushup rdbms //SPEECH//LINE\n";
      Unix.close fd;
      C.with_client port (fun c ->
          let reply =
            C.update c ~doc:"plays"
              (P.Insert { parent = root_start; pos = 0; xml = "<PROBE/>" })
          in
          ignore (expect_ok "update after disconnect" reply));
      (* And the server still answers queries. *)
      C.with_client port (fun c ->
          ignore
            (expect_ok "query after disconnect"
               (C.query c ~doc:"plays" ~translator:Blas.Pushup
                  ~engine:Blas.Rdbms "//PROBE"))))

(* ------------------------------------------------------------------ *)
(* Live: soak with live edits                                          *)

(* Resolves one abstract edit (the update suite's generator) into a
   concrete protocol edit against [shadow]'s current state — the same
   mod-node-count discipline as Test_update.apply_edit. *)
let resolve_edit shadow (edit : Test_update.edit) =
  let nodes = Array.of_list (Test_update.all_nodes shadow) in
  let n = Array.length nodes in
  match edit with
  | Test_update.Insert (parent, pos, tree) ->
    let parent = nodes.(parent mod n) in
    let pos = pos mod (List.length parent.Blas_xpath.Doc.children + 1) in
    let xml = Blas_xml.Printer.compact tree in
    if String.contains xml '\n' then None
    else Some (P.Insert { parent = parent.Blas_xpath.Doc.start; pos; xml })
  | Test_update.Delete i ->
    if n > 1 then
      Some (P.Delete { start = nodes.(1 + (i mod (n - 1))).Blas_xpath.Doc.start })
    else None
  | Test_update.Retext (i, v) ->
    let v = match v with Some "" -> None | v -> v in
    Some (P.Retext { start = nodes.(i mod n).Blas_xpath.Doc.start; data = v })

let apply_concrete shadow = function
  | P.Insert { parent; pos; xml } ->
    ignore
      (Blas.Update.insert_subtree shadow ~parent ~pos (Blas_xml.Dom.parse xml))
  | P.Delete { start } -> ignore (Blas.Update.delete_subtree shadow ~start)
  | P.Retext { start; data } ->
    ignore (Blas.Update.replace_text shadow ~start data)

let outcome_count srv outcome =
  Blas_obs.Metrics.counter_value
    (Blas_obs.Metrics.counter (Srv.registry srv)
       ~labels:[ ("outcome", outcome) ]
       "server.requests")

let starts_of_payload payload =
  match Blas_cluster.Merge.parse_answers payload with
  | Some starts -> starts
  | None -> Alcotest.failf "not an answer payload: %S" payload

let live_soak () =
  let tree = small_auction () in
  let hosted = Blas.index_of_tree tree in
  let shadow = Blas.index_of_tree tree in
  let queries = auction_queries @ [ "//item/name"; "//person" ] in
  let config = { live_config with Srv.max_inflight = 4; queue_depth = 64 } in
  with_live ~config [ ("auction", hosted) ] (fun srv port ->
      let n_clients = 4 and per_client = 20 in
      let ok_queries = Atomic.make 0 in
      let failures = ref [] in
      let failures_lock = Mutex.create () in
      let fail msg =
        Mutex.lock failures_lock;
        failures := msg :: !failures;
        Mutex.unlock failures_lock
      in
      (* Concurrent phase: query clients hammer the document while the
         edit script runs against the live server.  Replies reflect
         some consistent document version, so here they only need to
         succeed; byte-level equivalence is checked once quiesced. *)
      let query_client k =
        C.with_client port (fun c ->
            let translator = List.nth translators (k mod List.length translators)
            and engine = List.nth engines (k mod 2) in
            for i = 0 to per_client - 1 do
              let q = List.nth queries ((i + k) mod List.length queries) in
              match C.query c ~doc:"auction" ~translator ~engine q with
              | P.Ok_payload _ -> ignore (Atomic.fetch_and_add ok_queries 1)
              | reply ->
                fail (Printf.sprintf "%s: %s" q (P.reply_to_string reply))
            done)
      in
      (* The edit script: abstract edits from the update suite's
         generator, resolved against the shadow, applied to the shadow
         and sent to the server in the same order.  Edits serialize
         under the document's write lock, so hosted and shadow storages
         see identical edit sequences. *)
      let rand = Random.State.make [| 0xB1A5; 2024 |] in
      let abstract_edits =
        List.init 12 (fun _ ->
            QCheck2.Gen.generate1 ~rand Test_update.edit_gen)
      in
      let applied_edits = ref 0 in
      let edit_client () =
        C.with_client port (fun c ->
            List.iter
              (fun edit ->
                match resolve_edit shadow edit with
                | None -> ()
                | Some concrete ->
                  (match C.update c ~doc:"auction" concrete with
                  | P.Ok_payload _ -> incr applied_edits
                  | reply ->
                    fail
                      (Printf.sprintf "edit: %s" (P.reply_to_string reply)));
                  apply_concrete shadow concrete;
                  Thread.delay 0.002)
              abstract_edits)
      in
      let editors = Thread.create edit_client () in
      let clients = List.init n_clients (fun k -> Thread.create query_client k) in
      List.iter Thread.join clients;
      Thread.join editors;
      (match !failures with
      | [] -> ()
      | msgs ->
        Alcotest.failf "soak: %d failures: %s" (List.length msgs) (List.hd msgs));
      (* Quiesced: every translator x engine must answer what the naive
         evaluator finds on the shadow, and a Push-up reply must be
         byte-identical to a fresh sequential run against the shadow. *)
      let compared = ref 0 in
      C.with_client port (fun c ->
          List.iter
            (fun q ->
              let oracle = Blas.oracle_union shadow (Blas.query_union q) in
              List.iter
                (fun engine ->
                  List.iter
                    (fun translator ->
                      let where =
                        Printf.sprintf "quiesced %s (%s/%s)" q
                          (Blas.translator_name translator)
                          (Blas.engine_name engine)
                      in
                      let got =
                        expect_ok q (C.query c ~doc:"auction" ~translator ~engine q)
                      in
                      incr compared;
                      Test_util.check_int_list (where ^ ": oracle") oracle
                        (starts_of_payload got);
                      if translator = Blas.Pushup then
                        Test_util.check_string where
                          (Svc.payload_of_report
                             (Blas.run_union shadow ~engine ~translator
                                (Blas.query_union q)))
                          got)
                    translators)
                engines)
            queries);
      (* STATS reconciliation: the server counted exactly what the
         clients observed. *)
      Test_util.check_int "ok counter reconciles"
        (Atomic.get ok_queries + !applied_edits + !compared)
        (outcome_count srv "ok");
      Test_util.check_int "no errors" 0 (outcome_count srv "error");
      Test_util.check_int "no busy" 0 (outcome_count srv "busy");
      Test_util.check_int "no timeouts" 0 (outcome_count srv "timeout"))

(* ------------------------------------------------------------------ *)
(* Live: observability — traces, metrics, time series, slow log        *)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

(* The value of ["key":"<string>"] in a JSON body (shallow scan). *)
let extract_quoted body key =
  let marker = Printf.sprintf "\"%s\":\"" key in
  match find_sub body marker with
  | None -> Alcotest.failf "no %S in %s" key body
  | Some i ->
    let start = i + String.length marker in
    let stop = String.index_from body start '"' in
    String.sub body start (stop - start)

(* The sum of a Prometheus counter over its label variants. *)
let prom_sum text name =
  List.fold_left
    (fun acc line ->
      let nl = String.length name in
      if
        String.length line > nl
        && String.sub line 0 nl = name
        && (line.[nl] = ' ' || line.[nl] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match
            float_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some v -> acc +. v
          | None -> acc)
        | None -> acc
      else acc)
    0.0
    (String.split_on_char '\n' text)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
      path
  in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
  in
  loop ();
  Buffer.contents buf

let live_observability () =
  let tree = small_plays () in
  let db_path = Filename.temp_file "blas_test_obsdb" ".blasdb" in
  let slow_path = Filename.temp_file "blas_test_slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ db_path; db_path ^ ".wal"; slow_path; slow_path ^ ".1" ])
  @@ fun () ->
  (* A disk-backed document with a tiny cache, so traced queries show
     real pager I/O and updates show WAL I/O. *)
  Blas.Database.create ~page_size:4096 ~path:db_path (Blas.Storage.of_tree tree);
  let hosted =
    Blas.Database.open_ ~cache_pages:8 ~mode:Blas.Database.Rw ~path:db_path ()
  in
  Fun.protect ~finally:(fun () -> Blas.Storage.close hosted)
  @@ fun () ->
  let root_start =
    List.fold_left
      (fun acc (n : Blas_xpath.Doc.node) -> min acc n.start)
      max_int (Blas.Storage.doc hosted).Blas_xpath.Doc.all
  in
  let config =
    {
      live_config with
      Srv.slow_ms = Some 0.0;
      slow_log = slow_path;
      ts_interval_ms = 20;
    }
  in
  with_live ~config [ ("plays", hosted) ] (fun _srv port ->
      C.with_client port (fun c ->
          (* A TRACE'd query carries its span tree, and the leaves
             reconcile with the METRICS deltas around the request. *)
          let before = C.metrics c in
          let body =
            expect_ok "traced query"
              (C.query ~trace:true c ~doc:"plays" ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE")
          in
          let after = C.metrics c in
          List.iter
            (fun span ->
              Test_util.check_bool ("trace has " ^ span) true
                (contains body
                   (Printf.sprintf "\"name\":\"%s\"" span)))
            [ "request"; "queue-wait"; "lock-wait"; "cache-probe"; "pager-io" ];
          Test_util.check_bool "trace carries the payload" true
            (contains body "\"payload\"");
          (* Exactly one counted request ran between the scrapes. *)
          Test_util.check_bool "requests delta is the traced query" true
            (prom_sum after "server_requests_total"
             -. prom_sum before "server_requests_total"
            = 1.0);
          (* The pager-io leaf equals the measured page-read delta. *)
          let pages = int_of_string (extract_quoted body "pages") in
          let page_delta =
            prom_sum after "blas_disk_page_reads_total"
            -. prom_sum before "blas_disk_page_reads_total"
          in
          Test_util.check_bool "cold cache read pages" true (pages > 0);
          Test_util.check_int "pager-io reconciles with METRICS" pages
            (int_of_float page_delta);
          (* The trace is retained for TRACE GET, by its id. *)
          let id = extract_quoted body "trace_id" in
          (match C.trace_get c id with
          | P.Ok_payload stored ->
            Test_util.check_bool "stored trace is the reply body" true
              (contains stored id && contains stored "queue-wait")
          | reply ->
            Alcotest.failf "TRACE GET: %s" (P.reply_to_string reply));
          (match C.trace_get c "nosuch-id" with
          | P.Err _ -> ()
          | reply ->
            Alcotest.failf "TRACE GET nosuch: %s" (P.reply_to_string reply));
          (* An untraced reply stays the plain payload. *)
          let plain =
            expect_ok "plain query"
              (C.query c ~doc:"plays" ~translator:Blas.Pushup
                 ~engine:Blas.Rdbms "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE")
          in
          Test_util.check_bool "no trace envelope without the header" false
            (contains plain "trace_id");
          (* A TRACE'd update shows the write path: apply + WAL I/O. *)
          let ubody =
            expect_ok "traced update"
              (C.update ~trace:true c ~doc:"plays"
                 (P.Retext { start = root_start; data = Some "probe" }))
          in
          List.iter
            (fun span ->
              Test_util.check_bool ("update trace has " ^ span) true
                (contains ubody (Printf.sprintf "\"name\":\"%s\"" span)))
            [ "request"; "lock-wait"; "apply"; "wal-io" ];
          (* METRICS JSON and the live time series parse-shape. *)
          let mjson = C.metrics ~json:true c in
          Test_util.check_bool "metrics json is a list" true
            (String.length mjson > 0 && mjson.[0] = '[');
          Thread.delay 0.06;
          let ts = C.timeseries c in
          Test_util.check_bool "timeseries shape" true
            (String.length ts > 0 && ts.[0] = '[' && contains ts "at_ms")));
  (* The slow log (threshold 0: everything is slow) was written and
     closed by the drain; every line is a JSON record. *)
  let ic = open_in slow_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Test_util.check_bool "slow log non-empty" true (List.length !lines > 0);
  List.iter
    (fun line ->
      Test_util.check_bool "slow log line shape" true
        (String.length line > 0 && line.[0] = '{' && contains line "elapsed_ns"))
    !lines

(* ------------------------------------------------------------------ *)
(* Live: graceful drain                                                *)

let live_drain role () =
  let fe = role.start plays_thunk in
  Fun.protect ~finally:fe.teardown @@ fun () ->
  (* An in-flight request across the drain still gets its reply. *)
  let straggler = C.connect fe.port in
  let straggler_reply = ref P.Busy in
  let straggler_thread =
    Thread.create (fun () -> straggler_reply := fe.slow straggler 150) ()
  in
  Thread.delay 0.05;
  fe.stop ();
  Thread.join straggler_thread;
  C.close straggler;
  Test_util.check_bool "in-flight request completed across the drain" true
    (match !straggler_reply with P.Ok_payload _ -> true | _ -> false);
  (* The port is released and new connections are refused. *)
  (match raw_socket fe.port with
  | fd ->
    (* A lingering listener backlog can accept once; it must at least
       not answer. *)
    Unix.close fd
  | exception Unix.Unix_error (ECONNREFUSED, _, _) -> ());
  (* stop is idempotent. *)
  fe.stop ()

let live_shutdown_verb role () =
  let fe = role.start plays_thunk in
  Fun.protect ~finally:fe.teardown @@ fun () ->
  C.with_client fe.port (fun c -> C.shutdown c);
  (* wait returns because the verb requested shutdown. *)
  fe.wait ();
  fe.stop ();
  Test_util.check_bool "drained after SHUTDOWN verb" true true

(* The plain-HTTP listener serves the role's exposition and 404s the
   rest. *)
let live_http_metrics role () =
  with_front ~metrics:true role plays_thunk (fun fe ->
      C.with_client fe.port (fun c -> C.ping c);
      match fe.metrics_port with
      | None -> Alcotest.fail "metrics port not bound"
      | Some hp ->
        let page = http_get hp "/metrics" in
        Test_util.check_bool "http 200" true (contains page "200 OK");
        Test_util.check_bool "http exposition" true
          (contains page (role.role ^ "_requests_total"));
        let json = http_get hp "/metrics.json" in
        Test_util.check_bool "http json" true
          (contains json "200 OK" && contains json "application/json");
        let missing = http_get hp "/nosuch" in
        Test_util.check_bool "http 404" true (contains missing "404"))

(* ------------------------------------------------------------------ *)
(* Live: the header rule                                               *)

(* DEADLINE and TRACE headers are taken by the next non-header frame,
   whatever it is; only an admitted request applies them.  Each row
   sends headers, then a frame that must not apply them, then a plain
   QUERY that must answer its plain payload. *)

let tiny_doc = "<r><a>x</a><b>y</b></r>"

let tiny_docs =
  List.init 12 (fun i ->
      ( Printf.sprintf "d%d" i,
        fun () -> Blas.index_of_tree (Blas_xml.Dom.parse tiny_doc) ))

type leak_fixture = {
  lport : int;
  ok_doc : string;  (** the follow-up QUERY's document *)
  busy : unit -> string * (unit -> unit);
      (** a QUERY line answering BUSY until the returned thunk runs *)
  close : unit -> unit;
}

(* One worker, no queue, SLEEP off: a QUERY parked behind a held write
   lock fills the admission queue. *)
let server_leak_fixture () =
  let srv =
    Srv.start
      {
        live_config with
        Srv.allow_sleep = false;
        max_inflight = 1;
        queue_depth = 0;
      }
      ~docs:(List.map (fun (n, build) -> (n, build ())) tiny_docs)
  in
  let port = Srv.port srv in
  let busy () =
    let doc = Option.get (Svc.find (Srv.service srv) "d0") in
    let release = Atomic.make false in
    let writer =
      Thread.create
        (fun () ->
          Rwlock.write doc.Svc.lock (fun () ->
              while not (Atomic.get release) do
                Thread.delay 0.005
              done))
        ()
    in
    Thread.delay 0.02;
    let parked =
      Thread.create
        (fun () ->
          C.with_client port (fun c ->
              ignore
                (C.query c ~doc:"d0" ~translator:Blas.Pushup
                   ~engine:Blas.Rdbms "//a")))
        ()
    in
    Thread.delay 0.05;
    ( "QUERY d0 pushup rdbms //a",
      fun () ->
        Atomic.set release true;
        Thread.join writer;
        Thread.join parked )
  in
  { lport = port; ok_doc = "d0"; busy; close = (fun () -> Srv.stop srv) }

(* Two shards: stopping one primary opens its breaker, and its
   documents answer BUSY while the other shard's still answer. *)
let router_leak_fixture () =
  let cluster = Local.start ~shards:2 ~docs:tiny_docs () in
  let port = Local.port cluster in
  let doc_on k =
    match Local.shard_docs cluster k with
    | d :: _ -> d
    | [] -> Alcotest.failf "shard %d hosts no document" k
  in
  let dead = doc_on 0 and alive = doc_on 1 in
  let busy () =
    Local.stop_primary cluster 0;
    C.with_client port (fun c ->
        let rec trip n =
          if n = 0 then Alcotest.fail "breaker never opened"
          else
            match
              C.query c ~doc:dead ~translator:Blas.Pushup ~engine:Blas.Rdbms
                "//a"
            with
            | P.Busy -> ()
            | _ -> trip (n - 1)
        in
        trip 10);
    (Printf.sprintf "QUERY %s pushup rdbms //a" dead, ignore)
  in
  { lport = port; ok_doc = alive; busy; close = (fun () -> Local.stop cluster) }

let leak_rows =
  let is_err = function P.Err _ -> true | _ -> false in
  [
    ( "DEADLINE 0, rejected SLEEP",
      fun _ -> ([ "DEADLINE 0" ], "SLEEP 5", is_err, ignore) );
    ( "DEADLINE 0, PING",
      fun _ -> ([ "DEADLINE 0" ], "PING", (( = ) (P.Ok_payload "pong")), ignore)
    );
    ( "TRACE, malformed INVAL",
      fun fx ->
        ([ "TRACE" ], Printf.sprintf "INVAL %s nonsense" fx.ok_doc, is_err, ignore)
    );
    ( "DEADLINE 0, BUSY-rejected QUERY",
      fun fx ->
        let line, lift = fx.busy () in
        ([ "DEADLINE 0" ], line, (( = ) P.Busy), lift) );
  ]

let live_headers_one_shot fixture () =
  let expected =
    Svc.payload_of_report
      (Blas.run_union
         (Blas.index_of_tree (Blas_xml.Dom.parse tiny_doc))
         ~engine:Blas.Rdbms ~translator:Blas.Pushup (Blas.query_union "//a"))
  in
  List.iter
    (fun (row, setup) ->
      let fx = fixture () in
      Fun.protect ~finally:fx.close @@ fun () ->
      C.with_client fx.lport (fun c ->
          let headers, frame, expect, lift = setup fx in
          List.iter (C.send_line c) headers;
          let reply = C.raw c frame in
          Test_util.check_bool
            (Printf.sprintf "%s: %s answered %s" row frame
               (P.reply_to_string reply))
            true (expect reply);
          lift ();
          Test_util.check_bool (row ^ ": next QUERY is plain") true
            (C.raw c (Printf.sprintf "QUERY %s pushup rdbms //a" fx.ok_doc)
            = P.Ok_payload expected)))
    leak_rows

(* ------------------------------------------------------------------ *)
(* Live: descriptor exhaustion                                         *)

(* The soft RLIMIT_NOFILE, from /proc (Linux); [None] when unknown. *)
let fd_limit () =
  match open_in "/proc/self/limits" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix:"Max open files" line -> (
        match
          List.filter (( <> ) "")
            (String.split_on_char ' '
               (String.sub line 14 (String.length line - 14)))
        with
        | soft :: _ -> int_of_string_opt soft
        | [] -> None)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Run out of descriptors while a client connects: the accept fails
   with EMFILE, and once descriptors are free again the listener must
   still be accepting. *)
let live_accept_survives_emfile role () =
  match fd_limit () with
  | Some n when n <= 65536 ->
    with_front role plays_thunk (fun fe ->
        let hog = ref [] in
        let release () =
          List.iter Unix.close !hog;
          hog := []
        in
        Fun.protect ~finally:release (fun () ->
            (try
               while true do
                 hog := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !hog
               done
             with Unix.Unix_error ((EMFILE | ENFILE), _, _) -> ());
            (* Room for the client's socket only: the front end's accept
               has none left. *)
            (match !hog with
            | fd :: rest ->
              Unix.close fd;
              hog := rest
            | [] -> ());
            let starved = raw_socket fe.port in
            Thread.delay 0.2;
            release ();
            Unix.close starved);
        let fd = raw_socket fe.port in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        let io = P.Io.of_fd fd in
        P.Io.write io "PING\n";
        match P.read_reply io with
        | Ok (P.Ok_payload "pong") -> ()
        | Ok r -> Alcotest.failf "expected pong, got %s" (P.reply_to_string r)
        | Error e -> Alcotest.failf "no reply after EMFILE: %s" e
        | exception Unix.Unix_error (e, _, _) ->
          Alcotest.failf "no reply after EMFILE: %s" (Unix.error_message e))
  | limit ->
    Printf.printf "skipped: descriptor limit %s is too high to exhaust quickly\n"
      (match limit with Some n -> string_of_int n | None -> "unknown");
    Alcotest.skip ()

(* ------------------------------------------------------------------ *)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("protocol round-trips", proto_roundtrip);
      ("protocol rejects garbage", proto_rejects_garbage);
      ("rwlock discipline", rwlock_discipline);
      ("rwlock writer-starvation bound", rwlock_writer_starvation_bound);
      ("service replies match in-process runs", service_matches_inprocess);
      ("group commit batches WAL fsyncs", group_commit_batches_fsyncs);
      ("group commit is crash safe", group_commit_crash_safety);
      ("live: basics", live_basics);
      ("live: 4 concurrent clients, byte-identical replies", live_concurrent_queries);
      ("live: BUSY when the admission queue is full", live_busy);
      ("live: deadlines answer TIMEOUT", live_timeout);
      ("live: oversized frame rejected", live_oversized_frame);
      ("live: garbage keeps the connection", live_garbage_keeps_connection server_role);
      ("live: half-close and mid-query disconnect", live_half_close_and_disconnect);
      ("live: soak with live edits", live_soak);
      ("live: traces, metrics, time series, slow log", live_observability);
      ("live: graceful drain", live_drain server_role);
      ("live: SHUTDOWN verb", live_shutdown_verb server_role);
      ("live: HTTP metrics listener", live_http_metrics server_role);
      ("live: headers are one-shot", live_headers_one_shot server_leak_fixture);
      ("live: accept survives EMFILE", live_accept_survives_emfile server_role);
      ( "live (router): garbage keeps the connection",
        live_garbage_keeps_connection router_role );
      ("live (router): graceful drain", live_drain router_role);
      ("live (router): SHUTDOWN verb", live_shutdown_verb router_role);
      ("live (router): HTTP metrics listener", live_http_metrics router_role);
      ( "live (router): headers are one-shot",
        live_headers_one_shot router_leak_fixture );
      ( "live (router): accept survives EMFILE",
        live_accept_survives_emfile router_role );
      ("service updates build no document model", update_builds_no_model);
    ]
