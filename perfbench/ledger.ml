(** The performance ledger: one seeded op stream per workload, replayed
    by one client, every answer checked, every metric printed by name
    and unit.  Run through [perfbench/run.py], which builds this
    executable first:

    {v
      python3 perfbench/run.py --workload local-cold --seed 1 --seconds 32 --trace 0
    v}

    {1 Workloads}

    Both replay one stream in one thread over one connection (or
    the calling thread), with the [Auto2] translator and no domain pool
    — a closed loop of one client.  The stream is generated from
    [--seed] before any setup; it holds {!stream_ops} ops (plus the
    partitioned reads of [routed-mixed]), the fewest that keep the
    percentiles printable, and [--seconds] sets how many times it is
    replayed.  Every count the program makes therefore repeats exactly
    for one seed, and only wall-clock numbers carry noise.  The
    documents and the mix of work are fixed (see {!Docs}, {!Stream});
    the seed draws the op order, the value-predicate constants and
    where the edits land.

    - [local-cold]: in-process [Blas.run] over v2 [.blasdb] files opened
      read-only through a 16-page pool (the files hold 80-120 pages),
      the semantic cache off, reads spread equally over the nine
      Figure 10 queries and the XMark skeletons.  The engines, buffer
      pool, pager and codec do the work.  Every 8th op is an edit,
      applied in process with [Blas.Update] to a private v1 read-write
      copy of its document: the in-process depth of the write path, so
      that routed update latency minus this one is the cost of the
      serving and routing hops.  The reads never see those copies.
    - [routed-mixed]: an in-process [Blas_cluster.Local] of 2 shards,
      each a primary and 1 replica (servers with the default config:
      cache on, group commit off, one domain), behind the default router
      config, over v1 files that fit their 1024-page pool.  Reads come
      in Zipf(1) proportion over a fixed rank order of Figure 10, XMark
      and value-predicate queries whose constants are drawn from the
      documents; every 8th op is an UPDATE, going round the documents
      and round the cycle RETEXT, INSERT (a small subtree), RETEXT,
      INSERT, DELETE (a subtree the stream inserted), DELETE; and after
      every 8th op comes a read of a read-only auction range-partitioned
      into 4 chunks, which scatters to both shards.  Protocol, service,
      rwlock, cache hits and precise invalidation, relabeling, WAL
      commits and checkpoints run on the shards, and the router adds
      its hop, the scatter-gather merge and the UPDATEX fan-out to
      replicas; pager reads stay near zero, the opposite profile to
      [local-cold].  Running in process avoids spawning shard processes
      onto the same 2 vCPUs.

    A third workload, one server without the router, was dropped: the
    runs of all three together did not fit the benchmark's time budget
    with enough passes per run to be steady on a shared host, and its
    layers (server, cache, update, WAL) run on the shards of
    [routed-mixed] too.

    Left unloaded on purpose: lock contention between clients
    (admission queue, rwlock) and the domain pool.  On 2 vCPUs with up
    to 10 % host steal they change cache mixes and page-read counts
    from run to run; [server.queue_wait_ms] and [server.lock_wait_ms]
    are printed so that they are seen to stay near zero.

    {1 Runs and noise}

    A run replays the stream in several untraced passes (one per 4 s of
    [--seconds], at least 3; see {!passes_for}), each on a fresh setup,
    so every op does the same work in every pass.  On a shared host the same work takes anywhere from 1x to 2x
    its quiet time from one second to the next (a fixed loop swings
    that much), and that interference only ever adds time.  So each
    op's latency is its fastest over the passes, from which the
    percentiles are taken, and [ops_per_s] is the stream's length over
    the summed fastest replays of its stretches of {!rate_block} ops: a
    stall in one pass reaches neither.  What no choice of passes
    removes is the host's drift over minutes, which moves whole runs:
    on a 2-vCPU VM the same code ran at 1x in one ten-run set and 1.5-2x
    slower within another (with host steal of 1-8 % in the slow runs),
    and the 10-run spreads (quartile distance over median) of the timing
    metrics went from 0.02-0.06 in quiet spells to 0.16-0.27 in such
    sets.  [setup_s] is the median of the
    full setups (see {!full_setups}).  Noise diagnostics are printed
    beside the metrics and not gated: every pass's plain rate and host
    steal (from /proc/stat) and a fixed calibration loop that does not
    use the program, timed before and after.

    Flush policy and location: group commit is off, so each commit does
    one WAL fsync; the files live under [.bench_work/] in the working
    directory, on whatever filesystem holds it (the run prints which).
    The same place serves both sides of every comparison.

    {1 Answer checks}

    [local-cold] reads are compared with [Blas.oracle], computed before
    timing.  [routed-mixed] replies are compared byte for byte with
    the payloads of a shadow copy (a [Service], the server minus its
    sockets, over identical files) that replays the stream before
    timing; the shadow also resolves each edit's target.  After each
    [routed-mixed] pass every replica answers the read set and must
    match its primary.  A mismatch, an ERR, BUSY or TIMEOUT counts as a
    failed op.

    {1 Metrics}

    End to end ([--trace 0]): [setup_s] (index the XML text, write and
    open the files, start the server or cluster, warm up with one pass
    over the read set), [ops_per_s], [query_p50_ms], [query_p98_ms],
    [update_p50_ms], [update_p90_ms], [live_heap_mb] (the OCaml heap
    live at the end of a pass with its setup still up, after a full
    collection; the median over the passes — the process's peak resident
    set is [gc.peak_rss_mb] in the per-layer metrics, since it follows
    when collections happened to run and swings by a fifth) and
    [disk_bytes_per_xml_byte] (database files plus WALs after a clean
    shutdown, over the XML bytes they hold; [local-cold] counts its v2
    query files).  A percentile is printed only with at least 10
    samples beyond it; the stream is sized so that it always is.

    Per layer ([--trace 1]): the same untraced passes (the reference for
    the tracing overhead and the source of the counts), then one more
    pass on a fresh setup with a trace on every request.  Each metric,
    the module it belongs to and the end-to-end metric it should move
    ([lc], [rm] name the workloads where it is measured; elsewhere
    it prints 0).  Counts marked exact repeat exactly for one seed.

    - [optimizer.choose_ms] ([Optimizer.choose], plan-choice span) →
      query_p50 (lc, rm); [optimizer.est_actual_ratio] (median over
      queries of the larger of estimate/actual and actual/estimate,
      [choice.ch_est_cost] against [Blas.actual_cost]) → query_p98 (lc)
    - [core.translate_ms] (translate, compile, decompose spans) and
      [core.query_ms] (the query span's own time) → query_p50 (lc, and
      cache misses in rm)
    - [exec.execute_ms] (execute and materialize self time, pager time
      taken out) → query_p50, query_p98 (lc, rm);
      [exec.visited_per_query], [exec.djoins_per_query],
      [exec.intermediate_per_query] (report counters, exact) →
      query_p50 (lc)
    - [pool.page_reads_per_query] (exact; report counters in lc, pager
      reads of the shards' files in rm), [pool.hit_ratio] (exact, lc)
      → query_p98; [pager.read_ms_per_query] (change in
      [io_page_read_ns]) → query_p50 (lc)
    - [codec.bytes_per_entry] (exact, [dk_stats] tables) →
      disk_bytes_per_xml_byte (lc's v2 against rm's v1)
    - [cache.hit_rate], [cache.invalidations_per_update] (exact,
      [Storage.cache_stats] deltas; under the router, of the primaries)
      and [cache.probe_ms] (cache-probe span) → query_p50, query_p98
      (rm)
    - [server.queue_wait_ms], [server.lock_wait_ms], [server.request_ms]
      (the request span's own time, from the shards' traces) → query_p50
      (rm); the wire between client and server is in [router.wire_ms]
    - [update.apply_ms] (apply self time, WAL time taken out) →
      update_p50 (lc); [update.relabeled_per_edit],
      [update.pages_written_per_edit], [update.escalations] (edits that
      relabeled existing nodes) (exact, update reports) → update_p90,
      query_p98 (lc, rm)
    - [wal.fsync_ms_per_commit], [wal.fsyncs_per_commit] (exact),
      [wal.bytes_per_update] ([dk_io] deltas, [dk_wal_bytes] read
      between ops, summed over the copies an edit reaches) → update_p50;
      [wal.checkpoints] (exact), [wal.checkpoint_ms] → update_p90 (lc,
      rm)
    - [router.wire_ms] (routed latency minus the shard request span of
      the longest leg), [router.legs_per_query] (exact),
      [router.replicate_ms] (mean routed update latency minus the
      primaries' mean UPDATEX time, from their [METRICS]) → query_p50,
      update_p50, update_p90 (rm); [router.hedges_fired],
      [router.hedges_won] ([Router.registry]; they fire on observed
      latency, so they are exempt from the determinism check) →
      query_p98 (rm)
    - [gc.minor_words_per_op], [gc.major_collections] ([Gc.quick_stat]
      deltas over the traced pass), [gc.peak_rss_mb] (the process's
      VmHWM) → ops_per_s, live_heap_mb (all)
    - [setup.index_s], [setup.db_create_s], [setup.open_s],
      [setup.start_s], [setup.warm_s] (medians over the run's full
      setups; rm counts the partitioned document's in-memory indexing in start) →
      setup_s (all)
    - [trace.untraced_ops_per_s] (the untraced passes' median plain
      rate), [trace.traced_ops_per_s] (the traced pass's),
      [trace.overhead_pct]: the tracing overhead;
      [trace.reconcile_err_pct]: how far the layers' self times plus the
      residual client/wire time miss the client-observed time, summed
      over the traced ops.  Above {!reconcile_eps_pct} the run is marked
      incorrect.

    Held-out seed for later claims: 9001.  Tune on others. *)

module Proto = Blas_server.Proto
module Client = Blas_server.Client
module Service = Blas_server.Service
module Local = Blas_cluster.Local
module Router = Blas_cluster.Router

let reconcile_eps_pct = 2.0

type workload = Local_cold | Routed_mixed

let workload_of_string = function
  | "local-cold" -> Some Local_cold
  | "routed-mixed" -> Some Routed_mixed
  | _ -> None

(* Ops in one pass: 700 reads (p98 with 14 beyond) and 100 edits (p90
   with 10 beyond).  [routed-mixed] adds one partitioned read per 8
   ops.  A short pass leaves time for many: see {!passes_for}. *)
let stream_ops = 800

(* The untraced passes of a run: one per 4 s of [--seconds] (a pass of
   either workload, setup included, takes about that on a 2-vCPU VM),
   never fewer than 3, so that the fastest over the passes has something
   to choose from.  The count depends on the argument alone, so it is
   the same for every commit measured. *)
let passes_for ~seconds = max 3 (seconds / 4)

(* [local-cold] writes its read-only v2 files (the bulk load takes
   longer than a pass) in this many setups, which give [setup_s]; later
   passes reopen setup 1's files with a fresh pool and make only the
   edit copies afresh, so each op still does the same work in every
   pass.  [routed-mixed] makes every setup in full. *)
let full_setups = 3

(* The rate is taken over stretches of this many consecutive ops. *)
let rate_block = 100

let local_pool_pages = 16

let served_pool_pages = 1024

let log fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Tallies: named sums a pass accumulates                              *)

let tally : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace tally name (v +. Option.value ~default:0. (Hashtbl.find_opt tally name))

let get name = Option.value ~default:0. (Hashtbl.find_opt tally name)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Concrete ops and their outcomes                                     *)

type cop = {
  doc : string;
  act : [ `Read of string | `Edit of Proto.edit ];
  expect : string;  (** the shadow's payload (or the oracle's answers) *)
}

type outcome = {
  lat_ns : float;
  ok : bool;
  layers : (string * float) list;
      (** traced only: self ns per layer, with ["residual"] the client
          time outside every span *)
  excluded_ns : float;  (** bookkeeping time kept out of the pass wall *)
}

let outcome ?(layers = []) ?(excluded_ns = 0.) lat_ns ok = { lat_ns; ok; layers; excluded_ns }

(* The edit report as the wire renders it:
   "+a -b nodes, R relabeled, P plabels, W pages written". *)
let tally_update_payload payload =
  let first = List.hd (String.split_on_char '\n' payload) in
  try
    Scanf.sscanf first "+%d -%d nodes, %d relabeled, %d plabels, %d pages written"
      (fun _ _ relabeled _ written ->
        add "upd.relabeled" (float_of_int relabeled);
        add "upd.pages_written" (float_of_int written);
        if relabeled > 0 then add "upd.escalations" 1.)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Deployments                                                         *)

type phases = {
  index_ns : float;
  create_ns : float;
  open_ns : float;
  start_ns : float;
  warm_ns : float;
}

let total_ns p = p.index_ns +. p.create_ns +. p.open_ns +. p.start_ns +. p.warm_ns

(** A live setup of one workload. *)
type live = {
  run_op : traced:bool -> cop -> outcome;
  query_stores : Blas.Storage.t list;  (** pager, pool and cache counters *)
  wal_stores : Blas.Storage.t list;  (** WAL counters *)
  files : (string * int) list;  (** database files and the XML bytes each holds *)
  before_pass : unit -> unit;
  after_pass : traced:bool -> unit;
  close : unit -> unit;
}

let io_of s =
  match Blas.Storage.disk s with
  | Some dk -> Some (dk.Blas.Storage.dk_io ())
  | None -> None

let sum_io stores f =
  List.fold_left
    (fun a s -> match io_of s with Some io -> a + f io | None -> a)
    0 stores

let wal_bytes stores =
  List.fold_left
    (fun a s ->
      match Blas.Storage.disk s with
      | Some dk -> a + dk.Blas.Storage.dk_wal_bytes ()
      | None -> a)
    0 stores

(* Codec density of the stores' tables: payload bytes per clustered row. *)
let bytes_per_entry stores =
  let bytes, entries =
    List.fold_left
      (fun (b, e) s ->
        match Blas.Storage.disk s with
        | None -> (b, e)
        | Some dk ->
          List.fold_left
            (fun (b, e) (t : Blas.Storage.table_stats) ->
              (b + t.Blas.Storage.ts_payload_bytes, e + t.Blas.Storage.ts_entries))
            (b, e) (dk.Blas.Storage.dk_stats ()).Blas.Storage.dstat_tables)
      (0, 0) stores
  in
  ratio (float_of_int bytes) (float_of_int entries)

let answers_payload starts =
  match starts with
  | [] -> "answers 0"
  | _ ->
    Printf.sprintf "answers %d\n%s" (List.length starts)
      (String.concat " " (List.map string_of_int starts))

let reply_payload = function
  | Proto.Ok_payload p -> Some p
  | Proto.Err _ | Proto.Busy | Proto.Timeout | Proto.Bye -> None

(* A traced wire reply: the plain payload and the span roots. *)
let envelope body =
  let j = Jsonp.parse body in
  ( Option.bind (Jsonp.member "payload" j) Jsonp.to_string,
    Option.value ~default:[] (Option.map Spans.roots_of_json (Jsonp.member "trace" j)),
    Option.value ~default:"" (Option.bind (Jsonp.member "trace_id" j) Jsonp.to_string) )

let layers_list acc = Hashtbl.fold (fun k v l -> (k, v) :: l) acc []

let root_ns = function
  | (r : Spans.span) :: _ -> r.Spans.dur_ns
  | [] -> 0.

(* ---------------- local-cold ---------------- *)

(* [~v2_dir]: reopen the read-only v2 files an earlier setup wrote
   there instead of writing them again (see {!full_setups}). *)
let setup_local ~dir ?v2_dir (docs : Docs.t list) ~reads =
  let stores =
    List.map
      (fun (d : Docs.t) ->
        let mem, t_index = Probe.timed (fun () -> Blas.index d.Docs.xml) in
        let qpath =
          Filename.concat (Option.value ~default:dir v2_dir) (d.Docs.name ^ ".v2.blasdb")
        in
        let wpath = Filename.concat dir (d.Docs.name ^ ".w.blasdb") in
        let (), t_create =
          Probe.timed (fun () ->
              if v2_dir = None then Blas.Database.create ~codec:Blas_rel.Codec.V2 ~path:qpath mem;
              Blas.Database.create ~codec:Blas_rel.Codec.V1 ~path:wpath mem)
        in
        let (q, w), t_open =
          Probe.timed (fun () ->
              ( Blas.Database.open_ ~cache_pages:local_pool_pages
                  ~mode:Blas.Database.Ro ~path:qpath (),
                Blas.Database.open_ ~cache_pages:served_pool_pages
                  ~mode:Blas.Database.Rw ~path:wpath () ))
        in
        (d, q, w, qpath, (t_index, t_create, t_open)))
      docs
  in
  let find name =
    List.find (fun ((d : Docs.t), _, _, _, _) -> d.Docs.name = name) stores
  in
  let (), t_warm =
    Probe.timed (fun () ->
        List.iter
          (fun (doc, xpath) ->
            let _, q, _, _, _ = find doc in
            ignore (Blas.run q ~engine:Blas.Rdbms ~translator:Blas.Auto2 (Blas.query xpath)))
          reads;
        List.iter (fun (_, q, _, _, _) -> Blas.Storage.cold_cache q) stores)
  in
  let sum f = List.fold_left (fun a (_, _, _, _, t) -> a +. f t) 0. stores in
  let phases =
    {
      index_ns = sum (fun (a, _, _) -> a);
      create_ns = sum (fun (_, b, _) -> b);
      open_ns = sum (fun (_, _, c) -> c);
      start_ns = 0.;
      warm_ns = t_warm;
    }
  in
  let parsed = Hashtbl.create 32 in
  let query_of xpath =
    match Hashtbl.find_opt parsed xpath with
    | Some q -> q
    | None ->
      let q = Blas.query xpath in
      Hashtbl.add parsed xpath q;
      q
  in
  let ratios = ref [] in
  let run_read ~traced (_, q, _, _, _) xpath expect =
    let ast = query_of xpath in
    let tracer =
      if traced then Blas_obs.Trace.create ~enabled:true () else Blas_obs.Trace.disabled
    in
    let io0 = io_of q in
    let report, lat_ns =
      Probe.timed (fun () ->
          Blas.run ~tracer q ~engine:Blas.Rdbms ~translator:Blas.Auto2 ast)
    in
    let c = report.Blas.counters in
    add "exec.visited" (float_of_int report.Blas.visited);
    add "exec.djoins" (float_of_int c.Blas_rel.Counters.djoins);
    add "exec.intermediate" (float_of_int c.Blas_rel.Counters.intermediate);
    add "pool.page_reads" (float_of_int c.Blas_rel.Counters.page_reads);
    add "pool.page_requests" (float_of_int c.Blas_rel.Counters.page_requests);
    let ok = answers_payload report.Blas.starts = expect in
    if not traced then outcome lat_ns ok
    else begin
      (match report.Blas.choice with
      | Some ch ->
        let engine =
          match ch.Blas.Optimizer.ch_engine with
          | Blas.Optimizer.Planner.Rdbms -> Blas.Rdbms
          | Blas.Optimizer.Planner.Twig -> Blas.Twig
        in
        let actual = Blas.actual_cost ~engine report in
        let est = ch.Blas.Optimizer.ch_est_cost in
        if actual > 0. && est > 0. then
          ratios := Float.max (est /. actual) (actual /. est) :: !ratios
      | None -> ());
      let pager_ns =
        match (io0, io_of q) with
        | Some a, Some b ->
          float_of_int (b.Blas_disk.Store.io_page_read_ns - a.Blas_disk.Store.io_page_read_ns)
        | _ -> 0.
      in
      let roots = Spans.roots_of_json (Blas_obs.Trace.to_json tracer) in
      let acc =
        Spans.attribute
          ~extra:[ ("pager.read", pager_ns); ("residual", lat_ns -. root_ns roots) ]
          roots
      in
      outcome ~layers:(layers_list acc) lat_ns ok
    end
  in
  let run_edit ~traced (_, _, w, _, _) edit expect =
    let io0 = io_of w in
    match Probe.timed (fun () -> Stream.apply w edit) with
    | exception (Invalid_argument _ | Failure _) -> outcome 0. false
    | report, lat_ns ->
      let payload = Stream.render_update w report in
      tally_update_payload payload;
      let ok = payload = expect in
      if not traced then outcome lat_ns ok
      else
        let wal_ns =
          match (io0, io_of w) with
          | Some a, Some b ->
            float_of_int (b.Blas_disk.Store.io_wal_fsync_ns - a.Blas_disk.Store.io_wal_fsync_ns)
          | _ -> 0.
        in
        outcome lat_ns ok
          ~layers:[ ("update.apply", Float.max 0. (lat_ns -. wal_ns)); ("wal.fsync", wal_ns) ]
  in
  let live =
    {
      run_op =
        (fun ~traced op ->
          let entry = find op.doc in
          match op.act with
          | `Read xpath -> run_read ~traced entry xpath op.expect
          | `Edit e -> run_edit ~traced entry e op.expect);
      query_stores = List.map (fun (_, q, _, _, _) -> q) stores;
      wal_stores = List.map (fun (_, _, w, _, _) -> w) stores;
      files =
        List.map (fun ((d : Docs.t), _, _, p, _) -> (p, String.length d.Docs.xml)) stores;
      before_pass = (fun () -> ratios := []);
      after_pass =
        (fun ~traced ->
          if traced then add "optimizer.est_actual_ratio" (Probe.median (Array.of_list !ratios)));
      close =
        (fun () ->
          List.iter
            (fun (_, q, w, _, _) ->
              Blas.Storage.close q;
              Blas.Storage.close w)
            stores);
    }
  in
  (live, phases)

(* ---------------- served documents ---------------- *)

(* Index, write v1 and open read-write: the shards' document build,
   shared with the shadow. *)
let build_v1 ~dir ?(suffix = "") (d : Docs.t) =
  let mem, t_index = Probe.timed (fun () -> Blas.index d.Docs.xml) in
  let path = Filename.concat dir (d.Docs.name ^ suffix ^ ".blasdb") in
  let (), t_create =
    Probe.timed (fun () -> Blas.Database.create ~codec:Blas_rel.Codec.V1 ~path mem)
  in
  let s, t_open =
    Probe.timed (fun () ->
        Blas.Database.open_ ~cache_pages:served_pool_pages ~mode:Blas.Database.Rw ~path ())
  in
  (s, path, t_index, t_create, t_open)

let wire_read ~traced c ~doc xpath =
  Client.query ~trace:traced c ~doc ~translator:Blas.Auto2 ~engine:Blas.Rdbms xpath

let wire_edit ~traced c ~doc edit = Client.update ~trace:traced c ~doc edit

(* One wire op: the reply, checked against the shadow; traced replies
   are unwrapped and their spans attributed by [attribute_trace]. *)
let wire_op ~traced ~attribute_trace c op =
  let send () =
    match op.act with
    | `Read xpath -> wire_read ~traced c ~doc:op.doc xpath
    | `Edit e -> wire_edit ~traced c ~doc:op.doc e
  in
  let reply, lat_ns = Probe.timed send in
  match reply_payload reply with
  | None -> outcome lat_ns false
  | Some body when not traced ->
    (match op.act with `Edit _ -> tally_update_payload body | `Read _ -> ());
    outcome lat_ns (body = op.expect)
  | Some body -> (
    match envelope body with
    | Some payload, roots, trace_id ->
      (match op.act with `Edit _ -> tally_update_payload payload | `Read _ -> ());
      let layers, excluded_ns =
        Probe.timed (fun () -> attribute_trace ~lat_ns ~trace_id roots)
      in
      outcome ~layers ~excluded_ns lat_ns (payload = op.expect)
    | None, _, _ -> outcome lat_ns false
    | exception Jsonp.Bad _ -> outcome lat_ns false)

let warm_reads c reads =
  List.iter (fun (doc, xpath) -> ignore (wire_read ~traced:false c ~doc xpath)) reads

(* ---------------- routed ---------------- *)

let metrics_entries c =
  match Jsonp.parse (Client.metrics ~json:true c) with
  | j -> Jsonp.to_list j
  | exception Jsonp.Bad _ -> []

(* Sum and count of a shard's server-side update latency (the router's
   UPDATEX lands there under the verb "update"). *)
let update_totals c =
  List.fold_left
    (fun (s, n) e ->
      let str k = Option.bind (Jsonp.member k e) Jsonp.to_string in
      let verb = Option.bind (Jsonp.member "labels" e) (fun l -> Option.bind (Jsonp.member "verb" l) Jsonp.to_string) in
      if str "name" = Some "server.request.latency_ns" && verb = Some "update" then
        ( s +. Option.value ~default:0. (Option.bind (Jsonp.member "sum" e) Jsonp.to_float),
          n +. Option.value ~default:0. (Option.bind (Jsonp.member "count" e) Jsonp.to_float) )
      else (s, n))
    (0., 0.) (metrics_entries c)

let router_counter router name =
  List.fold_left
    (fun a ((n, _), v) ->
      match v with
      | Blas_obs.Metrics.V_counter x when n = name -> a + x
      | _ -> a)
    0
    (Blas_obs.Metrics.snapshot (Router.registry router))

let setup_routed ~dir (docs : Docs.t list) ~reads =
  let templates =
    List.map
      (fun (d : Docs.t) ->
        let mem, t_index = Probe.timed (fun () -> Blas.index d.Docs.xml) in
        let path = Filename.concat dir (d.Docs.name ^ ".tpl.blasdb") in
        let (), t_create =
          Probe.timed (fun () -> Blas.Database.create ~codec:Blas_rel.Codec.V1 ~path mem)
        in
        (d, path, t_index, t_create))
      docs
  in
  (* Every hosting server opens a private copy of the template; the
     first copy of a document is its primary's (Local starts each
     group's primary before its replicas). *)
  let opened = ref [] and t_open = ref 0. in
  let thunk ((d : Docs.t), tpl, _, _) () =
    let k = List.length (List.filter (fun (n, _, _, _) -> n = d.Docs.name) !opened) in
    let path = Filename.concat dir (Printf.sprintf "%s.%d.blasdb" d.Docs.name k) in
    let s, t =
      Probe.timed (fun () ->
          Probe.copy_file tpl path;
          Blas.Database.open_ ~cache_pages:served_pool_pages ~mode:Blas.Database.Rw ~path ())
    in
    t_open := !t_open +. t;
    opened := (d.Docs.name, k = 0, s, (path, String.length d.Docs.xml)) :: !opened;
    s
  in
  let cluster, t_start =
    Probe.timed (fun () ->
        Local.start ~replicas:1 ~shards:2
          ~partition:(Docs.part_name, Docs.part_tree (), Docs.part_chunks)
          ~docs:(List.map (fun (((d : Docs.t), _, _, _) as t) -> (d.Docs.name, thunk t)) templates)
          ())
  in
  let c = Client.connect (Local.port cluster) in
  let (), t_warm = Probe.timed (fun () -> warm_reads c reads) in
  let sum f = List.fold_left (fun a t -> a +. f t) 0. templates in
  let phases =
    {
      index_ns = sum (fun (_, _, a, _) -> a);
      create_ns = sum (fun (_, _, _, b) -> b);
      open_ns = !t_open;
      start_ns = t_start -. !t_open;
      warm_ns = t_warm;
    }
  in
  let all = List.map (fun (_, _, s, _) -> s) !opened in
  let primaries = List.filter_map (fun (_, p, s, _) -> if p then Some s else None) !opened in
  (* Side connections to the shard endpoints, for TRACE GET and METRICS
     (between ops or outside the timed window). *)
  let side = Hashtbl.create 4 in
  let side_conn shard ep =
    match Hashtbl.find_opt side (shard, ep) with
    | Some c -> c
    | None ->
      let c = Client.connect (Local.endpoint_port cluster shard ep) in
      Hashtbl.add side (shard, ep) c;
      c
  in
  let shard_trace shard id =
    let rec from ep =
      if ep > 1 then []
      else
        match Client.trace_get (side_conn shard ep) id with
        | Proto.Ok_payload body -> (
          match envelope body with _, roots, _ -> roots | exception Jsonp.Bad _ -> [])
        | _ -> from (ep + 1)
    in
    from 0
  in
  let router_names = function
    | "server.request" -> "router.request"
    | "server.queue_wait" -> "router.queue_wait"
    | l -> l
  in
  let attribute_trace ~lat_ns ~trace_id roots =
    let legs_of = function
      | (r : Spans.span) :: _ -> Spans.critical_leg r
      | [] -> None
    in
    let residual = ("residual", lat_ns -. root_ns roots) in
    match legs_of roots with
    | None ->
      (* An UPDATE: the router applies on the primary and fans out to
         the replicas inside its own request span. *)
      layers_list (Spans.attribute ~rename:router_names ~extra:[ residual ] roots)
    | Some (i, shard, leg_ns, nlegs) ->
      add "router.legs" (float_of_int nlegs);
      let shard_roots = shard_trace shard (Printf.sprintf "%s-s%d" trace_id i) in
      let shard_ns = root_ns shard_roots in
      add "router.wire" (lat_ns -. shard_ns);
      let acc = Spans.attribute ~rename:router_names ~extra:[ residual ] roots in
      (* The shard's queue wait precedes its request span: it lies in
         the leg's time outside the shard. *)
      let sacc =
        Spans.attribute ~outside:"router.leg_wire"
          ~extra:[ ("router.leg_wire", leg_ns -. shard_ns) ]
          shard_roots
      in
      Hashtbl.iter (fun k v -> Spans.charge acc k v) sacc;
      layers_list acc
  in
  (* Hedges fired and won, and the primaries' UPDATEX time and count. *)
  let totals () =
    let r = Local.router cluster in
    let s, n =
      List.fold_left
        (fun (s, n) k ->
          let s', n' = update_totals (side_conn k 0) in
          (s +. s', n +. n'))
        (0., 0.) [ 0; 1 ]
    in
    [ float_of_int (router_counter r "router.hedge.fired");
      float_of_int (router_counter r "router.hedge.won"); s; n ]
  in
  let at_start = ref [] in
  let live =
    {
      run_op = (fun ~traced op -> wire_op ~traced ~attribute_trace c op);
      query_stores = primaries;
      wal_stores = all;
      files = List.map (fun (_, _, _, f) -> f) !opened;
      before_pass = (fun () -> at_start := totals ());
      after_pass =
        (fun ~traced:_ ->
          List.iter2
            (fun name (a, b) -> add name (b -. a))
            [ "router.hedges_fired"; "router.hedges_won"; "router.primary_updatex_ns";
              "router.primary_updatex_n" ]
            (List.combine !at_start (totals ())));
      close =
        (fun () ->
          Hashtbl.iter (fun _ c -> try Client.quit c with _ -> ()) side;
          (try Client.quit c with _ -> ());
          Local.stop cluster;
          List.iter Blas.Storage.close all);
    }
  in
  (live, phases, cluster)

(** After [routed-mixed]: every replica must answer each hosted
    document's reads exactly as its primary.  Returns (checks, mismatches). *)
let replica_check cluster ~reads =
  let checks = ref 0 and bad = ref 0 in
  for shard = 0 to 1 do
    Client.with_client (Local.endpoint_port cluster shard 0) @@ fun p ->
    Client.with_client (Local.endpoint_port cluster shard 1) @@ fun r ->
    List.iter
      (fun doc ->
        let xpaths =
          match List.filter_map (fun (d, x) -> if d = doc then Some x else None) reads with
          | [] -> Docs.part_queries (* a chunk of the partitioned document *)
          | xs -> xs
        in
        List.iter
          (fun xpath ->
            incr checks;
            let a = reply_payload (wire_read ~traced:false p ~doc xpath) in
            let b = reply_payload (wire_read ~traced:false r ~doc xpath) in
            if a = None || a <> b then incr bad)
          xpaths)
      (Local.shard_docs cluster shard)
  done;
  (!checks, !bad)

(* ------------------------------------------------------------------ *)
(* Shadow replay: expected payloads and resolved edits                 *)

(* Expected payloads repeat (a hot query's answer stays put between
   edits): one copy each, so the ops array costs about the same memory
   whatever the mix. *)
let interned = Hashtbl.create 256

let intern s =
  match Hashtbl.find_opt interned s with
  | Some s -> s
  | None ->
    Hashtbl.add interned s s;
    s

let shadow_local ~dir (docs : Docs.t list) stream =
  let oracle = Hashtbl.create 32 in
  let shadows =
    List.map
      (fun (d : Docs.t) ->
        let mem = Blas.index d.Docs.xml in
        let path = Filename.concat dir (d.Docs.name ^ ".shadow.blasdb") in
        Blas.Database.create ~codec:Blas_rel.Codec.V1 ~path mem;
        let w =
          Blas.Database.open_ ~cache_pages:served_pool_pages ~mode:Blas.Database.Rw ~path ()
        in
        (d, mem, w))
      docs
  in
  let find name = List.find (fun ((d : Docs.t), _, _) -> d.Docs.name = name) shadows in
  let ops =
    Array.map
      (function
        | Stream.Read { doc; xpath } ->
          let _, mem, _ = find doc in
          let expect =
            match Hashtbl.find_opt oracle (doc, xpath) with
            | Some e -> e
            | None ->
              let e = answers_payload (Blas.oracle mem (Blas.query xpath)) in
              Hashtbl.add oracle (doc, xpath) e;
              e
          in
          { doc; act = `Read xpath; expect }
        | Stream.Edit { doc; spec } ->
          let d, _, w = find doc in
          let edit = Stream.resolve d w spec in
          let expect = Stream.render_update w (Stream.apply w edit) in
          { doc; act = `Edit edit; expect })
      stream
  in
  List.iter (fun (_, _, w) -> Blas.Storage.close w) shadows;
  ops

(* The routed shadow: a [Service] (the server minus its sockets) over
   identical files, warmed and replayed exactly as the cluster will be,
   with the partitioned document hosted whole. *)
let shadow_routed ~dir (docs : Docs.t list) ~reads stream =
  let built = List.map (fun d -> (d, build_v1 ~dir ~suffix:".shadow" d)) docs in
  let part = [ (Docs.part_name, Blas.index_of_tree (Docs.part_tree ())) ] in
  let svc =
    Service.create
      (List.map (fun ((d : Docs.t), (s, _, _, _, _)) -> (d.Docs.name, s)) built @ part)
  in
  let query ~doc xpath =
    Service.query svc ~token:Blas.Par.Token.none ~doc ~translator:Blas.Auto2
      ~engine:Blas.Rdbms xpath
  in
  let payload what = function
    | Proto.Ok_payload p -> intern p
    | r -> failwith (Printf.sprintf "shadow %s failed: %s" what (Proto.reply_to_string r))
  in
  List.iter (fun (doc, xpath) -> ignore (payload xpath (query ~doc xpath))) reads;
  let ops =
    Array.map
      (function
        | Stream.Read { doc; xpath } ->
          { doc; act = `Read xpath; expect = payload xpath (query ~doc xpath) }
        | Stream.Edit { doc; spec } ->
          let d, (s, _, _, _, _) = List.find (fun ((d : Docs.t), _) -> d.Docs.name = doc) built in
          let edit = Stream.resolve d s spec in
          { doc; act = `Edit edit; expect = payload "edit" (Service.update svc ~doc edit) })
      stream
  in
  List.iter (fun (_, (s, _, _, _, _)) -> Blas.Storage.close s) built;
  ops

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  wall_s : float;
  op_ns : float array;
      (** wall time from the end of the previous op to the end of this
          one, bookkeeping taken out: the ops' share of [wall_s] *)
  live_heap_mb : float;  (** the live heap at the end, setup still up *)
  q_lat : float array;  (** ns, reads in stream order *)
  u_lat : float array;  (** ns, edits in stream order *)
  attempted : int;
  failed : int;
  steal_pct : float;
  gc_minor_words : float;
  gc_major : int;
  layer_q : (string, float) Hashtbl.t;  (** traced: summed self ns over queries *)
  layer_u : (string, float) Hashtbl.t;  (** traced: summed self ns over edits *)
  client_ns : float;  (** traced: summed client time *)
  attributed_ns : float;  (** traced: summed layer + residual time *)
}

let cache_delta stores before =
  List.fold_left2
    (fun (hits, lookups, inval) s b ->
      let d = Blas.Cache.diff_stats ~before:b ~after:(Blas.Storage.cache_stats s) in
      let h (x : Blas_cache.Stats.snapshot) = x.hits + x.containment_hits in
      let m (x : Blas_cache.Stats.snapshot) = x.misses in
      let r = d.Blas.Cache.results and st = d.Blas.Cache.streams in
      ( hits + h r + h st,
        lookups + h r + h st + m r + m st,
        inval + (Blas.Cache.totals d).Blas_cache.Stats.invalidations ))
    (0, 0, 0) stores before

let run_pass ~traced (live : live) (ops : cop array) =
  Hashtbl.reset tally;
  Gc.compact ();
  live.before_pass ();
  let cache0 = List.map Blas.Storage.cache_stats live.query_stores in
  (* Disk I/O totals, reported as deltas over the pass. *)
  let io_fields =
    let wal = live.wal_stores and rd = live.query_stores in
    Blas_disk.Store.
      [
        ("wal.fsyncs", (fun i -> i.io_wal_fsyncs), wal);
        ("wal.fsync_ns", (fun i -> i.io_wal_fsync_ns), wal);
        ("wal.commits", (fun i -> i.io_commits), wal);
        ("wal.checkpoints", (fun i -> i.io_checkpoints), wal);
        ("wal.checkpoint_ns", (fun i -> i.io_checkpoint_ns), wal);
        ("pager.reads", (fun i -> i.io_page_reads), rd);
        ("pager.read_ns", (fun i -> i.io_page_read_ns), rd);
      ]
  in
  let io0 = List.map (fun (_, f, stores) -> sum_io stores f) io_fields in
  let q_lat = ref [] and u_lat = ref [] and failed = ref 0 and excluded = ref 0. in
  let layer_q = Hashtbl.create 16 and layer_u = Hashtbl.create 16 in
  let client = ref 0. and attributed = ref 0. in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Probe.cpu_jiffies () in
  let t0 = Probe.now_ns () in
  let op_ns = Array.make (Array.length ops) 0. and last = ref t0 in
  (* WAL bytes an edit appends (over every copy it reaches), read
     between ops, when the one client leaves the servers idle; windows
     holding a checkpoint are skipped.  Traced passes only. *)
  let checkpoints () = sum_io live.wal_stores (fun io -> io.io_checkpoints) in
  let run op =
    match op.act with
    | `Edit _ when traced ->
      let b0 = wal_bytes live.wal_stores and k0 = checkpoints () in
      let r = live.run_op ~traced op in
      if checkpoints () = k0 then begin
        add "wal.bytes" (float_of_int (wal_bytes live.wal_stores - b0));
        add "wal.bytes_samples" 1.
      end;
      r
    | _ -> live.run_op ~traced op
  in
  Array.iteri
    (fun i op ->
      let r = run op in
      let now = Probe.now_ns () in
      op_ns.(i) <- Int64.to_float (Int64.sub now !last) -. r.excluded_ns;
      last := now;
      if not r.ok then incr failed;
      excluded := !excluded +. r.excluded_ns;
      let into =
        match op.act with
        | `Read _ -> q_lat := r.lat_ns :: !q_lat; layer_q
        | `Edit _ -> u_lat := r.lat_ns :: !u_lat; layer_u
      in
      if traced then begin
        List.iter (fun (l, v) -> Spans.charge into l v) r.layers;
        client := !client +. r.lat_ns;
        attributed := !attributed +. List.fold_left (fun a (_, v) -> a +. v) 0. r.layers
      end)
    ops;
  let wall_ns = Int64.to_float (Blas_obs.Clock.elapsed_ns t0) -. !excluded in
  let cpu1 = Probe.cpu_jiffies () in
  let gc1 = Gc.quick_stat () in
  live.after_pass ~traced;
  (* Live heap with the setup still up, after a full collection: the
     memory the deployment holds, which unlike the resident set does not
     follow when collections happened to run. *)
  Gc.full_major ();
  let live_heap_mb =
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.
  in
  let hits, lookups, inval = cache_delta live.query_stores cache0 in
  add "cache.hits" (float_of_int hits);
  add "cache.lookups" (float_of_int lookups);
  add "cache.invalidations" (float_of_int inval);
  List.iter2
    (fun (name, f, stores) v0 -> add name (float_of_int (sum_io stores f - v0)))
    io_fields io0;
  {
    wall_s = wall_ns /. 1e9;
    op_ns;
    live_heap_mb;
    q_lat = Array.of_list (List.rev !q_lat);
    u_lat = Array.of_list (List.rev !u_lat);
    attempted = Array.length ops;
    failed = !failed;
    steal_pct = Probe.steal_pct cpu0 cpu1;
    gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    layer_q;
    layer_u;
    client_ns = !client;
    attributed_ns = !attributed;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let pct_ms xs p =
  match Probe.percentile xs p with
  | Some ns -> ns /. 1e6
  | None -> failwith (Printf.sprintf "fewer than 10 samples beyond p%.0f" p)

(** The counts that repeat exactly for one seed (hedges are exempt:
    they fire on observed latency). *)
let exact_counts (p : pass) ~codec_bpe =
  let nq = float_of_int (Array.length p.q_lat) and nu = float_of_int (Array.length p.u_lat) in
  [
    ("exec.visited_per_query", ratio (get "exec.visited") nq, "count");
    ("exec.djoins_per_query", ratio (get "exec.djoins") nq, "count");
    ("exec.intermediate_per_query", ratio (get "exec.intermediate") nq, "count");
    ( "pool.page_reads_per_query",
      ratio (if get "pool.page_requests" > 0. then get "pool.page_reads" else get "pager.reads") nq,
      "count" );
    ( "pool.hit_ratio",
      (if get "pool.page_requests" > 0. then 1. -. ratio (get "pool.page_reads") (get "pool.page_requests")
       else 0.),
      "ratio" );
    ("codec.bytes_per_entry", codec_bpe, "B");
    ("cache.hit_rate", ratio (get "cache.hits") (get "cache.lookups"), "ratio");
    ("cache.invalidations_per_update", ratio (get "cache.invalidations") nu, "count");
    ("update.relabeled_per_edit", ratio (get "upd.relabeled") nu, "count");
    ("update.pages_written_per_edit", ratio (get "upd.pages_written") nu, "count");
    ("update.escalations", get "upd.escalations", "count");
    ("wal.fsyncs_per_commit", ratio (get "wal.fsyncs") (get "wal.commits"), "count");
    ("wal.checkpoints", get "wal.checkpoints", "count");
  ]

let layer_metrics (p : pass) ~untraced_ops_per_s =
  let nq = float_of_int (Array.length p.q_lat) and nu = float_of_int (Array.length p.u_lat) in
  let lq l = ratio (Option.value ~default:0. (Hashtbl.find_opt p.layer_q l)) nq /. 1e6 in
  let lu l = ratio (Option.value ~default:0. (Hashtbl.find_opt p.layer_u l)) nu /. 1e6 in
  let traced_ops_per_s = float_of_int p.attempted /. p.wall_s in
  let upd_mean_ms = ratio (Array.fold_left ( +. ) 0. p.u_lat) nu /. 1e6 in
  [
    ("optimizer.choose_ms", lq "optimizer.choose", "ms");
    ("optimizer.est_actual_ratio", get "optimizer.est_actual_ratio", "ratio");
    ("core.translate_ms", lq "core.translate", "ms");
    ("core.query_ms", lq "core.query", "ms");
    ("exec.execute_ms", lq "exec.execute", "ms");
    ("pager.read_ms_per_query", lq "pager.read", "ms");
    ("cache.probe_ms", lq "cache.probe", "ms");
    ("server.queue_wait_ms", lq "server.queue_wait", "ms");
    ("server.lock_wait_ms", lq "server.lock_wait", "ms");
    ("server.request_ms", lq "server.request", "ms");
    ("update.apply_ms", lu "update.apply", "ms");
    ("wal.fsync_ms_per_commit", ratio (get "wal.fsync_ns") (get "wal.commits") /. 1e6, "ms");
    ("wal.bytes_per_update", ratio (get "wal.bytes") (get "wal.bytes_samples"), "B");
    ("wal.checkpoint_ms", ratio (get "wal.checkpoint_ns") (get "wal.checkpoints") /. 1e6, "ms");
    ("router.wire_ms", ratio (get "router.wire") nq /. 1e6, "ms");
    ( "router.legs_per_query",
      ratio (get "router.legs") nq,
      "count" );
    ( "router.replicate_ms",
      (if get "router.primary_updatex_n" > 0. then
         upd_mean_ms -. (ratio (get "router.primary_updatex_ns") (get "router.primary_updatex_n") /. 1e6)
       else 0.),
      "ms" );
    ("router.hedges_fired", get "router.hedges_fired", "count");
    ("router.hedges_won", get "router.hedges_won", "count");
    ("gc.minor_words_per_op", p.gc_minor_words /. float_of_int p.attempted, "words");
    ("gc.major_collections", float_of_int p.gc_major, "count");
    ("gc.peak_rss_mb", Probe.peak_rss_mb (), "MiB");
    ("trace.untraced_ops_per_s", untraced_ops_per_s, "1/s");
    ("trace.traced_ops_per_s", traced_ops_per_s, "1/s");
    ("trace.overhead_pct", 100. *. (1. -. (traced_ops_per_s /. untraced_ops_per_s)), "%");
    ( "trace.reconcile_err_pct",
      100. *. Float.abs (p.client_ns -. p.attributed_ns) /. Float.max 1. p.client_ns,
      "%" );
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let exact_json counts =
  "{"
  ^ String.concat ", "
      (List.map (fun (n, v, _) -> Printf.sprintf "%S: %s" n (json_number v)) counts)
  ^ "}"

let run w ~name ~seed ~seconds ~traced ~dir =
  let docs = Docs.all () in
  let stream, reads =
    Stream.generate ~seed ~ops:stream_ops ~skew:(w <> Local_cold) docs
  in
  let stream, reads =
    if w = Routed_mixed then
      ( Stream.with_part_reads ~seed stream,
        reads @ List.map (fun x -> (Docs.part_name, x)) Docs.part_queries )
    else (stream, reads)
  in
  let nedits =
    Array.fold_left (fun a -> function Stream.Edit _ -> a + 1 | Stream.Read _ -> a) 0 stream
  in
  let npasses = passes_for ~seconds in
  log "workload %s, seed %d, %d ops (%d edits) over %d distinct reads, %d passes, trace %d" name
    seed (Array.length stream) nedits (List.length reads) npasses (if traced then 1 else 0);
  log "flush policy: group commit off, one WAL fsync per commit; database files under %s (%s)"
    (Filename.concat ".bench_work" (Filename.basename dir))
    (Probe.filesystem_of dir);
  let cal0 = Probe.calibration_ms () in
  let shadow_dir = Filename.concat dir "shadow" in
  Probe.mkdir_p shadow_dir;
  let ops, shadow_ns =
    Probe.timed (fun () ->
        match w with
        | Local_cold -> shadow_local ~dir:shadow_dir docs stream
        | Routed_mixed -> shadow_routed ~dir:shadow_dir docs ~reads stream)
  in
  Probe.rm_rf shadow_dir;
  log "shadow replay %.2f s" (Probe.s_of_ns shadow_ns);
  (* [npasses] untraced passes, each on a fresh setup; then, in trace
     mode, one traced pass on another setup. *)
  let phases = ref [] and passes = ref [] and traced_pass = ref None in
  let attempted = ref 0 and failed = ref 0 in
  let exact = ref [] and disk_ratio = ref 0. and codec_bpe = ref 0. in
  let next_pass () =
    if List.length !passes < npasses then Some false
    else if traced && !traced_pass = None then Some true
    else None
  in
  let i = ref 0 in
  let rec loop () =
    match next_pass () with
    | None -> ()
    | Some tr ->
      incr i;
      let i = !i in
      let setup_dir i = Filename.concat dir (Printf.sprintf "setup-%d" i) in
      let sdir = setup_dir i in
      Probe.mkdir_p sdir;
      Gc.compact ();
      let full = i <= full_setups in
      let live, ph, cluster =
        match w with
        | Local_cold ->
          let v2_dir = if full then None else Some (setup_dir 1) in
          let l, p = setup_local ~dir:sdir ?v2_dir docs ~reads in
          (l, p, None)
        | Routed_mixed ->
          let l, p, c = setup_routed ~dir:sdir docs ~reads in
          (l, p, Some c)
      in
      if full || w = Routed_mixed then phases := ph :: !phases;
      Fun.protect ~finally:live.close (fun () ->
          if i = 1 then codec_bpe := bytes_per_entry live.query_stores;
          let p = run_pass ~traced:tr live ops in
          attempted := !attempted + p.attempted;
          failed := !failed + p.failed;
          (match cluster with
          | Some c ->
            let checks, bad = replica_check c ~reads in
            attempted := !attempted + checks;
            failed := !failed + bad;
            if bad > 0 then log "replica check: %d of %d reads differ from the primary" bad checks
          | None -> ());
          if tr then traced_pass := Some p
          else begin
            let counts = exact_counts p ~codec_bpe:!codec_bpe in
            if i = 1 then begin
              exact := counts;
              log "exact %s" (exact_json counts)
            end
            else if counts <> !exact then
              log "exact counts of pass %d differ: %s" i (exact_json counts);
            passes := !passes @ [ p ]
          end);
      (* Disk use after a clean shutdown: closing checkpoints each store
         and resets its WAL, so the figure does not follow where the
         stream happened to stop in the WAL's checkpoint cycle. *)
      if i = 1 then begin
        let bytes = List.fold_left (fun a (f, _) -> a + Probe.db_bytes f) 0 live.files in
        let xml = List.fold_left (fun a (_, x) -> a + x) 0 live.files in
        disk_ratio := ratio (float_of_int bytes) (float_of_int xml)
      end;
      if i > 1 then Probe.rm_rf sdir;
      loop ()
  in
  loop ();
  let cal1 = Probe.calibration_ms () in
  log "noise: host steal %s %% over the untraced passes; calibration loop %.1f ms before, %.1f ms after"
    (String.concat ", " (List.map (fun p -> Printf.sprintf "%.2f" p.steal_pct) !passes))
    cal0 cal1;
  if !failed > 0 then log "%d of %d ops failed" !failed !attempted;
  let phases = Array.of_list !phases in
  let med f = Probe.median (Array.map f phases) /. 1e9 in
  let setup_s = med total_ns in
  log "setups: %s s (median %.3f s)"
    (String.concat ", "
       (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" (total_ns p /. 1e9)) phases)))
    setup_s;
  let passes = !passes in
  let rates = List.map (fun p -> float_of_int p.attempted /. p.wall_s) passes in
  log "pass rates: %s ops/s" (String.concat ", " (List.map (Printf.sprintf "%.1f") rates));
  (* The passes replay one stream on identical setups, so each op does
     the same work in every pass, and host interference (steal, a busy
     co-tenant, a slow fsync) only ever adds time.  Each op's latency is
     therefore its fastest over the passes, and the rate is the stream's
     length over the sum, per stretch of [rate_block] consecutive ops,
     of the stretch's fastest replay: a stall anywhere in a pass reaches
     neither. *)
  let per_op f =
    let arrays = List.map f passes in
    Array.init
      (Array.length (List.hd arrays))
      (fun i -> List.fold_left (fun m a -> Float.min m a.(i)) Float.infinity arrays)
  in
  let nops = Array.length (List.hd passes).op_ns in
  let fastest_ns =
    let blocks = (nops + rate_block - 1) / rate_block in
    let block_ns (p : pass) b =
      let s = ref 0. in
      for i = b * rate_block to min (Array.length p.op_ns) ((b + 1) * rate_block) - 1 do
        s := !s +. p.op_ns.(i)
      done;
      !s
    in
    let total = ref 0. in
    for b = 0 to blocks - 1 do
      total := !total +. List.fold_left (fun m p -> Float.min m (block_ns p b)) Float.infinity passes
    done;
    !total
  in
  let ops_per_s = float_of_int nops /. (fastest_ns /. 1e9) in
  let q_lat = per_op (fun p -> p.q_lat) and u_lat = per_op (fun p -> p.u_lat) in
  match !traced_pass with
  | None ->
    print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
      [
        ("setup_s", setup_s, "s");
        ("ops_per_s", ops_per_s, "1/s");
        ("query_p50_ms", pct_ms q_lat 50., "ms");
        ("query_p98_ms", pct_ms q_lat 98., "ms");
        ("update_p50_ms", pct_ms u_lat 50., "ms");
        ("update_p90_ms", pct_ms u_lat 90., "ms");
        ("live_heap_mb", Probe.median (Array.of_list (List.map (fun p -> p.live_heap_mb) passes)), "MiB");
        ("disk_bytes_per_xml_byte", !disk_ratio, "ratio");
      ]
  | Some tp ->
    (* The traced pass ran last, so the tallies left (router legs, WAL
       bytes, hedges, GC) are its own. *)
    (* The overhead compares like with like: the traced pass's plain
       rate against the untraced passes' median plain rate. *)
    let layers = layer_metrics tp ~untraced_ops_per_s:(Probe.median (Array.of_list rates)) in
    let err = List.assoc "trace.reconcile_err_pct" (List.map (fun (n, v, _) -> (n, v)) layers) in
    log "reconcile: layer self times + residual = %.3f s against %.3f s client-observed (%.3f %%, epsilon %.1f %%)"
      (tp.attributed_ns /. 1e9) (tp.client_ns /. 1e9) err reconcile_eps_pct;
    print_result
      ~correct:(!failed = 0 && err <= reconcile_eps_pct)
      ~attempted:!attempted ~failed:!failed
      ([
         ("setup.index_s", med (fun p -> p.index_ns), "s");
         ("setup.db_create_s", med (fun p -> p.create_ns), "s");
         ("setup.open_s", med (fun p -> p.open_ns), "s");
         ("setup.start_s", med (fun p -> p.start_ns), "s");
         ("setup.warm_s", med (fun p -> p.warm_ns), "s");
       ]
      @ !exact @ layers)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " local-cold | routed-mixed");
      ("--seed", Arg.Set_int seed, " stream seed");
      ("--seconds", Arg.Set_int seconds, " nominal measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  match workload_of_string !workload with
  | None ->
    prerr_endline ("ledger: unknown workload " ^ !workload);
    exit 2
  | Some w ->
    let dir =
      Filename.concat (Sys.getcwd ())
        (Printf.sprintf ".bench_work/%s-%d" !workload (Unix.getpid ()))
    in
    Probe.mkdir_p dir;
    Fun.protect ~finally:(fun () -> Probe.rm_rf dir) @@ fun () ->
    run w ~name:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~traced:(!trace = 1) ~dir
