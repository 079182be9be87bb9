(** bench serve: closed-loop multi-client workload against a live
    in-process server, at 1 and 2 worker domains.

    Four client threads run the Figure 10 Shakespeare and auction
    queries with one live update mixed in every eighth operation, each
    over its own TCP connection against an ephemeral-port server.  The
    cache is off, so every query executes.  The loop runs once per
    domain level ([jobs] = the domains the server's four workers are
    spread over), each against a fresh server over fresh database
    copies.  The table reports client-observed throughput and
    p50/p95/p99 latency per verb and level; with [--json] it lands in
    BENCH_results.json, and with [--check] any non-OK reply fails the
    run (the CI smoke).  No level is expected to beat the other: the
    table only records what [-j] buys on the machine at hand. *)

module Srv = Blas_server.Server
module C = Blas_server.Client
module P = Blas_server.Proto

let n_clients = 4

let domain_levels = [ 1; 2 ]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let root_start (storage : Blas.Storage.t) =
  List.fold_left
    (fun acc (n : Blas_xpath.Doc.node) -> min acc n.start)
    max_int (Blas.Storage.doc storage).Blas_xpath.Doc.all

(* The served documents come from prebuilt database files, not the XML
   parse path — the server benchmark measures the disk engine the
   deployment runs on.  Each data set is indexed into a read-only
   template once per bench process ({!Datasets.db_template}); every use
   here takes a cheap private file copy and opens it read-write so live
   UPDATE verbs commit without touching the shared template.  Like
   [blas serve -j N], a server with [jobs] domains opens its databases
   with one buffer-pool stripe per domain. *)
let db_storage ~jobs template = Datasets.db_copy ~stripes:jobs (template ())

let workload =
  Array.of_list
    (List.map (fun (_, q) -> ("shakespeare", q)) Bench_queries.shakespeare
    @ List.map (fun (_, q) -> ("auction", q)) Bench_queries.auction)

type loop_result = {
  wall_s : float;
  queries : float array;  (** sorted client-observed latencies, ns *)
  updates : float array;
  non_ok : int;
}

(* One closed loop against a fresh server with [jobs] worker domains
   over fresh database copies; [after port] runs against the same
   server once the load is done. *)
let closed_loop ~per_client ~jobs ~after =
  let shakespeare, shakespeare_path = db_storage ~jobs Datasets.shakespeare_db in
  let auction, auction_path = db_storage ~jobs Datasets.auction_db in
  let cleanup () =
    List.iter (fun s -> try Blas.Storage.close s with _ -> ()) [ shakespeare; auction ];
    List.iter
      (fun p -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ p; p ^ ".wal" ])
      [ shakespeare_path; auction_path ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let docs = [ ("shakespeare", shakespeare); ("auction", auction) ] in
  let roots = List.map (fun (name, s) -> (name, root_start s)) docs in
  let config =
    {
      Srv.default_config with
      port = 0;
      jobs;
      max_inflight = n_clients;
      queue_depth = 64;
      cache = false;
    }
  in
  Srv.with_server config ~docs @@ fun srv ->
  let port = Srv.port srv in
  (* Warm: every query once per engine, so the steady state measures
     the resident server, not first-touch page reads. *)
  C.with_client port (fun c ->
      Array.iter
        (fun (doc, q) ->
          List.iter
            (fun engine ->
              ignore (C.query c ~doc ~translator:Blas.Pushup ~engine q))
            [ Blas.Rdbms; Blas.Twig ])
        workload);
  let query_ns = Array.make (n_clients * per_client) nan in
  let update_ns = Array.make (n_clients * per_client) nan in
  let non_ok = Atomic.make 0 in
  let client k =
    C.with_client port (fun c ->
        let engine = if k mod 2 = 0 then Blas.Rdbms else Blas.Twig in
        for i = 0 to per_client - 1 do
          let slot = (k * per_client) + i in
          let t0 = Bench_util.now_ns () in
          let reply, is_update =
            if i mod 8 = 7 then begin
              (* A live edit: retext the root, exercising the
                 exclusive-writer path under load. *)
              let doc, start = List.nth roots ((i + k) mod List.length roots) in
              ( C.update c ~doc
                  (P.Retext
                     { start; data = Some (if k mod 2 = 0 then "w1" else "w2") }),
                true )
            end
            else
              let doc, q = workload.((i + (k * 3)) mod Array.length workload) in
              (C.query c ~doc ~translator:Blas.Pushup ~engine q, false)
          in
          let dt = Int64.to_float (Int64.sub (Bench_util.now_ns ()) t0) in
          (match reply with
          | P.Ok_payload _ -> ()
          | _ -> Atomic.incr non_ok);
          if is_update then update_ns.(slot) <- dt else query_ns.(slot) <- dt
        done)
  in
  let t0 = Bench_util.now_ns () in
  let threads = List.init n_clients (fun k -> Thread.create client k) in
  List.iter Thread.join threads;
  let wall_s =
    Int64.to_float (Int64.sub (Bench_util.now_ns ()) t0) /. 1e9
  in
  let finite a =
    let s =
      Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list a))
    in
    Array.sort compare s;
    s
  in
  after port;
  {
    wall_s;
    queries = finite query_ns;
    updates = finite update_ns;
    non_ok = Atomic.get non_ok;
  }

(* Observability scrape: after the load, the same server must expose a
   well-formed Prometheus page, registry JSON and the live time series,
   and a TRACE'd query must come back with a span tree. *)
let scrape ~check port =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let malformed = ref [] in
  let expect name ok = if not ok then malformed := name :: !malformed in
  C.with_client port (fun c ->
      let prom = C.metrics c in
      expect "metrics text"
        (contains prom "# TYPE" && contains prom "server_requests_total");
      let mjson = C.metrics ~json:true c in
      expect "metrics json"
        (String.length mjson > 0 && mjson.[0] = '[' && contains mjson "server");
      let ts = C.timeseries c in
      expect "timeseries"
        (String.length ts > 0 && ts.[0] = '[' && contains ts "at_ms");
      let traced =
        C.query ~trace:true c ~doc:"shakespeare" ~translator:Blas.Pushup
          ~engine:Blas.Rdbms (snd workload.(0))
      in
      (match traced with
      | P.Ok_payload body ->
        expect "traced query"
          (contains body "trace_id" && contains body "queue-wait")
      | _ -> expect "traced query" false);
      Printf.printf
        "scrape: metrics %dB text / %dB json, timeseries %dB, traced reply \
         ok\n"
        (String.length prom) (String.length mjson) (String.length ts));
  match !malformed with
  | [] -> if check then Printf.printf "OK: observability scrape well-formed\n"
  | bad ->
    Printf.eprintf "serve: malformed observability payloads: %s\n%!"
      (String.concat ", " (List.rev bad));
    if check then Overhead.failed := true

let run () =
  Bench_util.heading "Serving: multi-client closed loop against a live server";
  let check = !Overhead.check_mode in
  let per_client = if check then 24 else 160 in
  let last = List.hd (List.rev domain_levels) in
  let results =
    List.map
      (fun jobs ->
        (* The scrape checks run once, against the last level's server. *)
        let after = if jobs = last then scrape ~check else ignore in
        (jobs, closed_loop ~per_client ~jobs ~after))
      domain_levels
  in
  let row jobs wall_s verb (sorted : float array) =
    [
      string_of_int jobs;
      verb;
      string_of_int (Array.length sorted);
      Printf.sprintf "%.0f" (float_of_int (Array.length sorted) /. wall_s);
      Printf.sprintf "%.3f" (percentile sorted 50. /. 1e6);
      Printf.sprintf "%.3f" (percentile sorted 95. /. 1e6);
      Printf.sprintf "%.3f" (percentile sorted 99. /. 1e6);
    ]
  in
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "%d clients x %d ops (1 update per 8 ops), cache off, by worker \
          domains (-j)"
         n_clients per_client)
    {
      Bench_util.header =
        [ "domains"; "verb"; "ops"; "ops/s"; "p50 ms"; "p95 ms"; "p99 ms" ];
      rows =
        List.concat_map
          (fun (jobs, r) ->
            let all = Array.append r.queries r.updates in
            Array.sort compare all;
            [
              row jobs r.wall_s "query" r.queries;
              row jobs r.wall_s "update" r.updates;
              row jobs r.wall_s "all" all;
            ])
          results;
    };
  let non_ok = List.fold_left (fun acc (_, r) -> acc + r.non_ok) 0 results in
  if non_ok > 0 then begin
    Printf.eprintf "serve: %d non-OK replies under closed-loop load\n%!" non_ok;
    if check then Overhead.failed := true
  end
  else if check then
    Printf.printf "OK: %d domain levels x %d clients, all replies OK\n"
      (List.length results) n_clients

(* ------------------------------------------------------------------ *)
(* bench serve shards: the scatter-gather router over 1/2/4 shards.

   Shards run as separate [blas serve] processes (real CPU parallelism
   — in-process threads would share one runtime lock), each hosting
   its --shard K/N slice of a directory of prebuilt database copies;
   the router runs in-process.  The closed loop reports aggregate QPS
   and client-observed p50/p99 per shard count, then repeats over a
   replicated 2-shard cluster with one primary flooded by SLEEP
   requests, with hedging off and on — the injected-slow-shard tail
   experiment. *)

module Router = Blas_cluster.Router

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> assert false)

(* The CLI executable, relative to the bench executable in dune's
   _build layout. *)
let cli_exe () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "blas_cli.exe")
  in
  if Sys.file_exists exe then Some exe else None

let wait_ping ~port ~attempts =
  let rec go n =
    match C.with_client port (fun c -> C.raw c "PING") with
    | _ -> true
    | exception _ ->
      if n <= 0 then false
      else begin
        Unix.sleepf 0.1;
        go (n - 1)
      end
  in
  go attempts

(* One cluster round: spawn [shards * (1 + replicas)] shard processes,
   start a router with [hedge], run [f], tear everything down.
   [docs_dirs.(i)] is the document directory for replica rank [i] —
   database files take an exclusive lock, so a replica needs its own
   copies of the files its primary serves. *)
let with_process_cluster ~exe ~docs_dirs ~shards ~replicas ~hedge f =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let children = ref [] in
  let kill_children () =
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      !children;
    List.iter
      (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !children
  in
  Fun.protect
    ~finally:(fun () ->
      kill_children ();
      Unix.close devnull)
  @@ fun () ->
  let groups =
    List.init shards (fun k ->
        let eps =
          List.init (1 + replicas) (fun i ->
              let name =
                if i = 0 then Printf.sprintf "shard-%d" k
                else Printf.sprintf "shard-%d-r%d" k i
              in
              let port = free_port () in
              let args =
                [|
                  exe; "serve"; "--quiet"; "--docs"; docs_dirs.(i);
                  "--port"; string_of_int port;
                  "--name"; name;
                  "--shard"; Printf.sprintf "%d/%d" k shards;
                  "--allow-sleep";
                  "--max-inflight"; "2";
                  "--queue-depth"; "64";
                |]
              in
              let pid =
                Unix.create_process exe args Unix.stdin devnull Unix.stderr
              in
              children := pid :: !children;
              { Router.host = "127.0.0.1"; Router.port })
        in
        match eps with
        | primary :: replicas -> { Router.primary; replicas }
        | [] -> assert false)
  in
  List.iter
    (fun { Router.primary; replicas } ->
      List.iter
        (fun (ep : Router.endpoint) ->
          if not (wait_ping ~port:ep.Router.port ~attempts:100) then
            failwith
              (Printf.sprintf "bench shards: shard on port %d did not come up"
                 ep.Router.port))
        (primary :: replicas))
    groups;
  Router.with_router
    {
      Router.default_config with
      Router.host = "127.0.0.1";
      port = 0;
      groups;
      max_inflight = 16;
      queue_depth = 128;
      hedge;
    }
    (fun router -> f router groups)

(* Closed loop through the router: [clients] threads, each its own
   connection, round-robin over [workload].  Returns (sorted latencies
   ns, wall seconds, non-OK count). *)
let closed_loop ~port ~clients ~per_client ~workload =
  let lat = Array.make (clients * per_client) nan in
  let non_ok = Atomic.make 0 in
  let busy = Atomic.make 0 and timeout = Atomic.make 0 in
  let client k =
    C.with_client port (fun c ->
        let engine = if k mod 2 = 0 then Blas.Rdbms else Blas.Twig in
        for i = 0 to per_client - 1 do
          let doc, q = workload.((i + (k * 7)) mod Array.length workload) in
          let t0 = Bench_util.now_ns () in
          (match C.query c ~doc ~translator:Blas.Pushup ~engine q with
          | P.Ok_payload _ -> ()
          | P.Busy ->
            Atomic.incr busy;
            Atomic.incr non_ok
          | P.Timeout ->
            Atomic.incr timeout;
            Atomic.incr non_ok
          | _ -> Atomic.incr non_ok);
          lat.((k * per_client) + i) <-
            Int64.to_float (Int64.sub (Bench_util.now_ns ()) t0)
        done)
  in
  let t0 = Bench_util.now_ns () in
  let threads = List.init clients (fun k -> Thread.create client k) in
  List.iter Thread.join threads;
  let wall_s = Int64.to_float (Int64.sub (Bench_util.now_ns ()) t0) /. 1e9 in
  Array.sort compare lat;
  if Atomic.get non_ok > 0 then
    Printf.eprintf "closed loop: %d non-OK (%d BUSY, %d TIMEOUT)\n%!"
      (Atomic.get non_ok) (Atomic.get busy) (Atomic.get timeout);
  (lat, wall_s, Atomic.get non_ok)

let shards () =
  Bench_util.heading "Sharding: closed-loop clients against the router";
  match cli_exe () with
  | None ->
    print_endline
      "bench shards: blas_cli.exe not found next to the bench executable; \
       skipping (build bin/ first)"
  | Some exe ->
    let check = !Overhead.check_mode in
    let copies = 4 in
    (* Directories of prebuilt database copies for the shard processes
       to partition: N copies of each template so documents spread over
       every shard count in the sweep.  One directory per replica rank —
       database files take an exclusive lock, so a replica process needs
       its own copies of the files its primary serves.  Two sets: the
       heavier x4 documents for the scaling sweep (per-query work must
       dominate protocol overhead) and the base documents for the
       hedging experiment (light queries keep the un-flooded replica
       far from saturation, so the measured tail is pure queueing
       behind the injected 40 ms naps). *)
    let make_dirs suffix templates =
      let dirs =
        Array.init 2 (fun rank ->
            let dir =
              Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "blas_bench_shards_%d_%s_r%d" (Unix.getpid ())
                   suffix rank)
            in
            (try Unix.mkdir dir 0o700
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            dir)
      in
      Array.iter
        (fun dir ->
          List.iter
            (fun (tag, template) ->
              for i = 0 to copies - 1 do
                Datasets.copy_file (template ())
                  (Filename.concat dir (Printf.sprintf "%s-%d.blasdb" tag i))
              done)
            templates)
        dirs;
      dirs
    in
    let cleanup_dirs dirs =
      Array.iter
        (fun dir ->
          Array.iter
            (fun f ->
              try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (try Sys.readdir dir with Sys_error _ -> [||]);
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        dirs
    in
    let docs_dirs =
      make_dirs "x4"
        [
          ("shakespeare", Datasets.shakespeare_x4_db);
          ("auction", Datasets.auction_x4_db);
        ]
    in
    let hedge_dirs =
      make_dirs "base"
        [
          ("shakespeare", Datasets.shakespeare_db);
          ("auction", Datasets.auction_db);
        ]
    in
    let cleanup () =
      cleanup_dirs docs_dirs;
      cleanup_dirs hedge_dirs
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let workload =
      Array.of_list
        (List.concat_map
           (fun i ->
             List.map
               (fun (_, q) -> (Printf.sprintf "shakespeare-%d" i, q))
               Bench_queries.shakespeare
             @ List.map
                 (fun (_, q) -> (Printf.sprintf "auction-%d" i, q))
                 Bench_queries.auction)
           (List.init copies Fun.id))
    in
    let clients = 16 in
    let per_client = if check then 12 else 160 in
    let warm port =
      C.with_client port (fun c ->
          Array.iter
            (fun (doc, q) ->
              ignore (C.query c ~doc ~translator:Blas.Pushup ~engine:Blas.Rdbms q))
            workload)
    in
    (* -- aggregate QPS over 1/2/4 shards ----------------------------- *)
    let scaling_rows =
      List.map
        (fun n ->
          with_process_cluster ~exe ~docs_dirs ~shards:n ~replicas:0
            ~hedge:Router.Hedge_off (fun router _groups ->
              let port = Router.port router in
              warm port;
              let lat, wall_s, non_ok =
                closed_loop ~port ~clients ~per_client ~workload
              in
              if non_ok > 0 then begin
                Printf.eprintf "shards(%d): %d non-OK replies\n%!" n non_ok;
                if check then Overhead.failed := true
              end;
              let ops = Array.length lat in
              [
                string_of_int n;
                string_of_int ops;
                Printf.sprintf "%.3f" wall_s;
                Printf.sprintf "%.0f" (float_of_int ops /. wall_s);
                Printf.sprintf "%.3f" (percentile lat 50. /. 1e6);
                Printf.sprintf "%.3f" (percentile lat 99. /. 1e6);
              ]))
        [ 1; 2; 4 ]
    in
    Bench_util.print_table
      ~title:
        (Printf.sprintf
           "router scatter-gather, %d clients x %d ops, %d documents, %d \
            core(s)%s"
           clients per_client (Array.length workload)
           (Domain.recommended_domain_count ())
           (if Domain.recommended_domain_count () <= 1 then
              " (shard QPS scaling needs >1 core)"
            else ""))
      {
        Bench_util.header =
          [ "shards"; "ops"; "wall s"; "QPS"; "p50 ms"; "p99 ms" ];
        rows = scaling_rows;
      };
    (* -- hedging under an injected slow shard ------------------------ *)
    (* 2 shards x (primary + 1 replica); the busiest primary is flooded
       with SLEEP requests that pin its 2 workers, so queries routed to
       it queue behind 40 ms naps.  With hedging on, the router races
       the replica after 5 ms and the tail collapses.  A lighter closed
       loop than the scaling sweep: the point is tail latency, not
       saturation — hedging under overload only adds load. *)
    let clients = 8 in
    let per_client = if check then 12 else 64 in
    let hedge_rows =
      List.map
        (fun (label, hedge) ->
          with_process_cluster ~exe ~docs_dirs:hedge_dirs ~shards:2 ~replicas:1
            ~hedge
            (fun router groups ->
              let port = Router.port router in
              warm port;
              let victim =
                (* The primary hosting the most documents. *)
                let count (g : Router.group) =
                  C.with_client g.Router.primary.Router.port (fun c ->
                      match C.raw c "LIST" with
                      | P.Ok_payload body ->
                        List.length
                          (List.filter
                             (fun l -> l <> "")
                             (String.split_on_char '\n' body))
                      | _ -> 0)
                in
                List.fold_left
                  (fun best g -> if count g > count best then g else best)
                  (List.hd groups) (List.tl groups)
              in
              let flooding = Atomic.make true in
              let flooders =
                List.init 2 (fun _ ->
                    Thread.create
                      (fun () ->
                        try
                          C.with_client victim.Router.primary.Router.port
                            (fun c ->
                              while Atomic.get flooding do
                                ignore (C.sleep c 40)
                              done)
                        with _ -> ())
                      ())
              in
              Fun.protect
                ~finally:(fun () ->
                  Atomic.set flooding false;
                  List.iter Thread.join flooders)
              @@ fun () ->
              let lat, wall_s, non_ok =
                closed_loop ~port ~clients ~per_client ~workload
              in
              if non_ok > 0 then begin
                Printf.eprintf "shards hedge(%s): %d non-OK replies\n%!" label
                  non_ok;
                if check then Overhead.failed := true
              end;
              let reg = Router.registry router in
              let counter name =
                Blas_obs.Metrics.counter_value
                  (Blas_obs.Metrics.counter reg name)
              in
              let ops = Array.length lat in
              [
                label;
                string_of_int ops;
                Printf.sprintf "%.0f" (float_of_int ops /. wall_s);
                Printf.sprintf "%.3f" (percentile lat 50. /. 1e6);
                Printf.sprintf "%.3f" (percentile lat 99. /. 1e6);
                string_of_int (counter "router.hedge.fired");
                string_of_int (counter "router.hedge.won");
              ]))
        [ ("off", Router.Hedge_off); ("5ms", Router.Hedge_ms 5.0) ]
    in
    Bench_util.print_table
      ~title:
        "hedged reads under an injected slow shard (2 shards, 1 replica, \
         flooded primary)"
      {
        Bench_util.header =
          [ "hedge"; "ops"; "QPS"; "p50 ms"; "p99 ms"; "fired"; "won" ];
        rows = hedge_rows;
      }
