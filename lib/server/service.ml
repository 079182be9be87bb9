(** The hosted document collection behind the server — everything the
    wire protocol does, minus the sockets (directly unit-testable).

    Each document pairs a {!Blas.Storage.t} with a {!Rwlock.t}:
    queries run under the shared lock (any number concurrently — the
    buffer pool, semantic cache and metrics are all domain-safe), edits
    under the exclusive lock.  Cache invalidation needs no extra wiring
    here: {!Blas.Update} already routes every edit through
    [Update.invalidation] into the storage's own {!Blas.Cache}, which
    the server shares across all connections by construction.

    Query answers are rendered by {!payload_of_report}; the soak tests
    compare these bytes against a fresh in-process run, so the payload
    must be a deterministic function of the report. *)

type doc = { name : string; storage : Blas.Storage.t; lock : Rwlock.t }

type t = {
  docs : (string * doc) list;  (** in load order; names unique *)
}

(** [create ?cache ?group_commit_ms docs] — host [docs] (caching
    on by default: a resident server is exactly the repeated-workload
    case the semantic cache exists for).  A positive [group_commit_ms]
    puts every disk-backed document's store into deferred-durability
    mode: concurrent UPDATE verbs inside the window share one WAL
    fsync (each reply still waits for its commit to be durable). *)
let create ?(cache = true) ?(group_commit_ms = 0.) docs =
  List.iter (fun (_, s) -> Blas.Storage.set_cache_enabled s cache) docs;
  if group_commit_ms > 0. then
    List.iter
      (fun (_, s) ->
        match Blas.Storage.disk s with
        | Some dk when not dk.Blas.Storage.dk_readonly ->
          dk.Blas.Storage.dk_set_group_commit ~window_ms:group_commit_ms
        | _ -> ())
      docs;
  {
    docs =
      List.map
        (fun (name, storage) ->
          (name, { name; storage; lock = Rwlock.create () }))
        docs;
  }

let names t = List.map fst t.docs

let find t name = List.assoc_opt name t.docs

let docs t = List.map snd t.docs

(* ------------------------------------------------------------------ *)
(* Payload rendering                                                  *)

(** [payload_of_report r] — the QUERY reply body: a header line with
    the answer count, then (when non-empty) one line of space-separated
    start positions.  Deterministic in the report, so a server reply is
    byte-identical to a sequential in-process run of the same query. *)
let payload_of_report (r : Blas.report) =
  match r.Blas.starts with
  | [] -> "answers 0"
  | starts ->
    Printf.sprintf "answers %d\n%s" (List.length starts)
      (String.concat " " (List.map string_of_int starts))

let payload_of_update (report : Blas.Update.report) storage =
  let free, span = Blas.Update.gap_budget storage in
  Format.asprintf "%a@\ngap budget: %d of %d positions free"
    Blas.Update.pp_report report free span

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)

let unknown_doc t name =
  Proto.Err
    (Printf.sprintf "unknown document %S (hosted: %s)" name
       (String.concat ", " (names t)))

(** What the serving tier wants to know about a request beyond its
    reply: how long it blocked on the document lock, how much physical
    I/O it did, and whether the whole-query memo served it — the slow
    log's raw material. *)
type info = {
  i_lock_wait_ns : int64;  (** time blocked on the document lock *)
  i_pages_read : int;  (** buffer-pool misses during the run *)
  i_cache : string;  (** whole-query memo outcome: hit / miss / off / n-a *)
  i_plan : string option;
      (** the [Auto2] pick ("Unfold/twig"); [None] under explicit
          translators *)
  i_est_cost : float option;  (** the pick's estimated cost *)
  i_actual_cost : float option;  (** measured cost of the executed plan *)
}

let no_info =
  {
    i_lock_wait_ns = 0L;
    i_pages_read = 0;
    i_cache = "n/a";
    i_plan = None;
    i_est_cost = None;
    i_actual_cost = None;
  }

let disk_io d =
  Option.map
    (fun (dk : Blas.Storage.disk) -> dk.Blas.Storage.dk_io ())
    (Blas.Storage.disk d.storage)

(* Synthesized I/O spans: the disk layer times its own operations
   (cumulative totals), so a before/after delta around the held section
   is exact while the document lock serializes the writers and precise
   enough under concurrent readers. *)
let record_pager_io tracer d io0 ~start_ns =
  match (io0, disk_io d) with
  | Some (b : Blas_disk.Store.io), Some (a : Blas_disk.Store.io) ->
    Blas_obs.Trace.record tracer
      ~attrs:
        [ ("pages", string_of_int (a.io_page_reads - b.io_page_reads)) ]
      ~name:"pager-io" ~start_ns
      ~duration_ns:(Int64.of_int (a.io_page_read_ns - b.io_page_read_ns))
      ()
  | _ -> ()

let record_wal_io tracer d io0 ~start_ns =
  match (io0, disk_io d) with
  | Some (b : Blas_disk.Store.io), Some (a : Blas_disk.Store.io) ->
    Blas_obs.Trace.record tracer
      ~attrs:
        [
          ("fsyncs", string_of_int (a.io_wal_fsyncs - b.io_wal_fsyncs));
          ("commits", string_of_int (a.io_commits - b.io_commits));
        ]
      ~name:"wal-io" ~start_ns
      ~duration_ns:(Int64.of_int (a.io_wal_fsync_ns - b.io_wal_fsync_ns))
      ()
  | _ -> ()

(** [query_info t ~token ~doc ~translator ~engine xpath] — parse, then
    run under [doc]'s shared lock with cooperative cancellation from
    [token]; [TIMEOUT] when the token cancelled the run.  With an
    enabled [tracer] the lock wait, cache probe and pager I/O are
    recorded under the caller's open span. *)
let query_info t ~token ?(tracer = Blas_obs.Trace.disabled) ~doc ~translator
    ~engine xpath =
  match find t doc with
  | None -> (unknown_doc t doc, no_info)
  | Some d -> (
    match Blas.query_union xpath with
    | exception Blas_xpath.Parser.Error msg ->
      (Proto.Err (Printf.sprintf "query error: %s" msg), no_info)
    | queries -> (
      let cancel () = Blas.Par.Token.check token in
      let t_lock = Blas_obs.Clock.now_ns () in
      Rwlock.acquire_read d.lock;
      let lock_wait = Blas_obs.Clock.elapsed_ns t_lock in
      Blas_obs.Trace.record tracer
        ~attrs:[ ("mode", "read") ]
        ~name:"lock-wait" ~start_ns:t_lock ~duration_ns:lock_wait ();
      Fun.protect ~finally:(fun () -> Rwlock.release_read d.lock) @@ fun () ->
      let io0 = if Blas_obs.Trace.enabled tracer then disk_io d else None in
      let t_run = Blas_obs.Clock.now_ns () in
      match
        Blas.run_union ~tracer ~cancel d.storage ~engine
          ~translator queries
      with
      | report ->
        record_pager_io tracer d io0 ~start_ns:t_run;
        let cache =
          if report.Blas.memo_hits > 0 then "hit"
          else if Blas.Storage.cache_enabled d.storage then "miss"
          else "off"
        in
        let plan_fields =
          match report.Blas.choice with
          | None -> (None, None, None)
          | Some c ->
            ( Some (Blas.Optimizer.label c),
              Some c.Blas.Optimizer.ch_est_cost,
              Some
                (Blas.actual_cost
                   ~engine:
                     (match c.Blas.Optimizer.ch_engine with
                     | Blas.Optimizer.Planner.Rdbms -> Blas.Rdbms
                     | Blas.Optimizer.Planner.Twig -> Blas.Twig)
                   report) )
        in
        let i_plan, i_est_cost, i_actual_cost = plan_fields in
        ( Proto.Ok_payload (payload_of_report report),
          {
            i_lock_wait_ns = lock_wait;
            i_pages_read = report.Blas.page_reads;
            i_cache = cache;
            i_plan;
            i_est_cost;
            i_actual_cost;
          } )
      | exception Blas.Par.Cancelled ->
        (Proto.Timeout, { no_info with i_lock_wait_ns = lock_wait })))

let query t ~token ~doc ~translator ~engine xpath =
  fst (query_info t ~token ~doc ~translator ~engine xpath)

(** [update_full t ~doc edit] — apply one edit under the exclusive
    lock.  Updates are not cancellable mid-flight: label maintenance
    must never be torn, and edits are short.  With an enabled [tracer]
    the lock wait and WAL I/O are recorded.  Returns the reply, the
    request info, and — on success — the §11 invalidation record (the
    router fans it out to read replicas).  Durability of a deferred
    (group-commit) transaction is waited for {e after} the write lock
    is released, so updates arriving within the window can batch their
    WAL fsyncs instead of serializing on them. *)
let update_full t ?(tracer = Blas_obs.Trace.disabled) ~doc (edit : Proto.edit)
    =
  match find t doc with
  | None -> (unknown_doc t doc, no_info, None)
  | Some d ->
    let apply () =
      match edit with
      | Proto.Insert { parent; pos; xml } ->
        let tree = Blas_xml.Dom.parse xml in
        Blas.Update.insert_subtree d.storage ~parent ~pos tree
      | Proto.Delete { start } -> Blas.Update.delete_subtree d.storage ~start
      | Proto.Retext { start; data } ->
        Blas.Update.replace_text d.storage ~start data
    in
    let t_lock = Blas_obs.Clock.now_ns () in
    Rwlock.acquire_write d.lock;
    let lock_wait = Blas_obs.Clock.elapsed_ns t_lock in
    Blas_obs.Trace.record tracer
      ~attrs:[ ("mode", "write") ]
      ~name:"lock-wait" ~start_ns:t_lock ~duration_ns:lock_wait ();
    let info = { no_info with i_lock_wait_ns = lock_wait } in
    let result =
      Fun.protect ~finally:(fun () -> Rwlock.release_write d.lock)
      @@ fun () ->
      let io0 = if Blas_obs.Trace.enabled tracer then disk_io d else None in
      let t_run = Blas_obs.Clock.now_ns () in
      match
        Blas_obs.Trace.with_span tracer "apply"
          ~attrs:[ ("doc", d.name) ]
          apply
      with
      | report ->
        record_wal_io tracer d io0 ~start_ns:t_run;
        ( Proto.Ok_payload (payload_of_update report d.storage),
          info,
          Some report.Blas.Update.invalidation )
      | exception Invalid_argument msg -> (Proto.Err msg, info, None)
      | exception Blas_xml.Types.Parse_error (pos, msg) ->
        ( Proto.Err
            (Printf.sprintf "%s at %s" msg
               (Blas_xml.Types.position_to_string pos)),
          info,
          None )
    in
    (* Outside the write lock: wait for the (possibly batched) fsync
       before acknowledging, so UPDATE's ack still implies durability
       while the fsyncs coalesce.  The guarantee is for the
       acknowledged writer only: between lock release and the group
       fsync the new pages are already readable, so a crash in that
       window can lose an update other clients observed (see
       Store.set_group_commit). *)
    (match Blas.Storage.disk d.storage with
    | Some dk -> dk.Blas.Storage.dk_sync_commits ()
    | None -> ());
    result

let update_info t ?tracer ~doc (edit : Proto.edit) =
  let reply, info, _ = update_full t ?tracer ~doc edit in
  (reply, info)

let update t ~doc (edit : Proto.edit) = fst (update_info t ~doc edit)

(** [invalidate t ~doc payload] — the INVAL verb: apply a §11 precise
    invalidation record (as serialized by {!Proto.invalidation_to_string})
    to [doc]'s query cache.  Used by the router to push a primary's
    invalidation to read replicas that serve the same document from a
    shared or copied index. *)
let invalidate t ~doc payload =
  match find t doc with
  | None -> unknown_doc t doc
  | Some d -> (
    match Proto.invalidation_of_string payload with
    | None -> Proto.Err "malformed invalidation payload"
    | Some (inv : Blas.Update.invalidation) ->
      Rwlock.write d.lock (fun () ->
          Blas.Cache.invalidate
            (Blas.Storage.cache d.storage)
            ~full:inv.Blas.Update.inv_full
            ~schema_changed:inv.Blas.Update.inv_schema_changed
            ~plabels:inv.Blas.Update.inv_plabels);
      Proto.Ok_payload "invalidated")

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)

let list_payload t = String.concat "\n" (names t)

(* The buffer-pool block: request/miss totals and the derived hit
   ratio (1.0 before any traffic — an empty pool has missed nothing). *)
let pool_json storage =
  let pool = Blas.Storage.pool storage in
  let requests = Blas_rel.Buffer_pool.requests pool in
  let misses = Blas_rel.Buffer_pool.misses pool in
  let ratio =
    if requests = 0 then 1.0
    else float_of_int (requests - misses) /. float_of_int requests
  in
  Blas_obs.Json.Obj
    [
      ("requests", Blas_obs.Json.Int requests);
      ("misses", Blas_obs.Json.Int misses);
      ("writes", Blas_obs.Json.Int (Blas_rel.Buffer_pool.writes pool));
      ( "dirty_evictions",
        Blas_obs.Json.Int (Blas_rel.Buffer_pool.dirty_evictions pool) );
      ("hit_ratio", Blas_obs.Json.Float ratio);
    ]

(* The disk block (disk-backed storages only): cumulative I/O totals
   plus the current WAL backlog, and the catalog chain's length with
   the chain pages commits have written since open (the catalog's
   write amplification, against [commits]). *)
let disk_json storage =
  match Blas.Storage.disk storage with
  | None -> []
  | Some dk ->
    let io = dk.Blas.Storage.dk_io () in
    let st = dk.Blas.Storage.dk_stats () in
    [
      ( "disk",
        Blas_obs.Json.Obj
          [
            ("wal_fsyncs", Blas_obs.Json.Int io.Blas_disk.Store.io_wal_fsyncs);
            ( "wal_fsync_ns",
              Blas_obs.Json.Int io.Blas_disk.Store.io_wal_fsync_ns );
            ("commits", Blas_obs.Json.Int io.Blas_disk.Store.io_commits);
            ( "checkpoints",
              Blas_obs.Json.Int io.Blas_disk.Store.io_checkpoints );
            ( "checkpoint_ns",
              Blas_obs.Json.Int io.Blas_disk.Store.io_checkpoint_ns );
            ("page_reads", Blas_obs.Json.Int io.Blas_disk.Store.io_page_reads);
            ( "page_read_ns",
              Blas_obs.Json.Int io.Blas_disk.Store.io_page_read_ns );
            ( "group_commits",
              Blas_obs.Json.Int io.Blas_disk.Store.io_group_commits );
            ( "group_saved_fsyncs",
              Blas_obs.Json.Int io.Blas_disk.Store.io_group_saved_fsyncs );
            ( "wal_backlog_bytes",
              Blas_obs.Json.Int st.Blas.Storage.dstat_wal_bytes );
            ( "catalog_pages",
              Blas_obs.Json.Int st.Blas.Storage.dstat_catalog_pages );
            ( "catalog_writes",
              Blas_obs.Json.Int st.Blas.Storage.dstat_catalog_writes );
          ] );
    ]

(** Per-document block of the STATS payload: node counts, lock
    occupancy, cache stats, buffer-pool traffic, and — when
    disk-backed — I/O totals. *)
let docs_json t =
  Blas_obs.Json.Obj
    (List.map
       (fun (name, d) ->
         let readers, writer = Rwlock.occupancy d.lock in
         let cache =
           Blas.Cache.totals (Blas.Storage.cache_stats d.storage)
         in
         ( name,
           Blas_obs.Json.Obj
             ([
                ( "nodes",
                  Blas_obs.Json.Int (Blas.Storage.node_count d.storage) );
                ("readers", Blas_obs.Json.Int readers);
                ("writer", Blas_obs.Json.Bool writer);
                ( "cache",
                  Blas_obs.Json.Obj
                    (List.map
                       (fun (k, v) -> (k, Blas_obs.Json.Int v))
                       (Blas_cache.Stats.fields cache)) );
                ("pool", pool_json d.storage);
              ]
             @ disk_json d.storage) ))
       t.docs)
