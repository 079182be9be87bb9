(** Transactional page store: pager + WAL + recovery.

    This is the layer the database above actually talks to.  It follows
    a no-steal / force-to-log discipline:

    - During a transaction every page write lands in an in-memory
      transaction buffer; the main file is untouched.
    - {!commit} first appends all buffered page images, the new root
      and a commit marker to the WAL and fsyncs it; only then are the
      pages and superblock applied to the main file (unsynced — the WAL
      protects them until the next checkpoint).
    - {!checkpoint} fsyncs the main file and truncates the WAL; it runs
      automatically when the WAL grows past a threshold and at close.

    Opening read-write replays any committed WAL tail into the main
    file (crash recovery), discarding torn records.  Opening read-only
    replays the WAL into an in-memory overlay instead, so a reader sees
    committed state without writing anything.

    Reads go transaction buffer → read-only overlay → pager, so a
    transaction always sees its own writes. *)

type mode = Pager.mode = Ro | Rw

module Obs_metrics = Blas_obs.Metrics

(** Cumulative I/O totals for one store: commit-path WAL fsyncs,
    checkpoints, and physical page reads, each with monotonic
    nanoseconds.  The serving layer mirrors these into its metrics
    registry and synthesizes pager/WAL I/O trace spans from deltas. *)
type io = {
  io_wal_fsyncs : int;
  io_wal_fsync_ns : int;
  io_commits : int;
  io_checkpoints : int;
  io_checkpoint_ns : int;
  io_page_reads : int;
  io_page_read_ns : int;
  io_group_commits : int;  (** commits that deferred their fsync *)
  io_group_saved_fsyncs : int;  (** fsyncs avoided by batching *)
}

(* Optional event-time histogram handles (durations want a
   distribution, not just a total; counts are mirrored from {!io} at
   scrape time instead). *)
type obs = {
  ob_fsync_ns : Obs_metrics.histogram;
  ob_checkpoint_ns : Obs_metrics.histogram;
}

type tx = {
  writes : (int, string) Hashtbl.t;
  mutable order : int list;  (** distinct page ids, most recent first *)
  mutable tx_root : string option;
  mutable tx_count : int;  (** page count including in-tx allocations *)
}

(** Committed-but-unapplied state layered over the pager.  Read-only
    opens build one from the WAL; group commit parks deferred
    transactions here until the shared fsync applies them to the main
    file.  The record is swapped atomically (never mutated while
    readers can see it concurrently): commits mutate it only under the
    document's exclusive write lock, and the group flush publishes a
    fresh empty snapshot only after the pager holds every page, so a
    racing reader sees correct bytes through either snapshot. *)
type snapshot = {
  ov_pages : (int, string) Hashtbl.t;
  mutable ov_root : string option;
  mutable ov_count : int option;
}

let empty_snapshot () =
  { ov_pages = Hashtbl.create 16; ov_root = None; ov_count = None }

type t = {
  pager : Pager.t;
  wal : Wal.t option;  (** [None] in read-only mode *)
  overlay : snapshot Atomic.t;  (** committed-but-unapplied *)
  mutable tx : tx option;
  mutable bulk : bool;  (** initial load: direct writes, no WAL *)
  checkpoint_bytes : int;
  mutable closed : bool;
  (* Group commit: when [group_window_ns > 0], {!commit} defers its
     fsync and main-file apply; {!sync_pending} batches the durability
     work across commits under [glock]. *)
  mutable group_window_ns : int;
  glock : Mutex.t;
  gcond : Condition.t;
  mutable g_seq : int;  (** deferred commits issued *)
  mutable g_synced : int;  (** deferred commits made durable *)
  mutable g_leader : bool;  (** a sync leader is sleeping the window *)
  mutable st_group_commits : int;
  mutable st_group_saved : int;
  (* I/O totals.  Page reads race across query domains (the buffer
     pool's stripes read through concurrently), so they are atomics;
     commits and checkpoints serialize on the database tx lock. *)
  st_page_reads : int Atomic.t;
  st_page_read_ns : int Atomic.t;
  mutable st_commits : int;
  mutable st_checkpoints : int;
  mutable st_checkpoint_ns : int;
  mutable st_obs : obs option;
}

let default_checkpoint_bytes = 4 * 1024 * 1024

let recover_rw pager wal =
  let applied =
    Wal.replay wal ~apply:(fun ~pages ~root ~count ->
        List.iter (fun (id, payload) -> Pager.write_page pager id payload) pages;
        (match root with None -> () | Some r -> Pager.set_root pager r);
        Pager.set_count pager count;
        Pager.flush_superblock pager)
  in
  if applied > 0 then begin
    Disk_log.Log.info (fun m ->
        m "%s: recovered %d committed transaction(s) from WAL" (Pager.path pager)
          applied);
    Pager.sync pager
  end;
  Wal.reset wal;
  applied

(* A freshly opened store over [pager]: no transaction, no group-commit
   window, zeroed counters, [overlay] as its committed snapshot. *)
let make ~checkpoint_bytes ~wal pager overlay =
  {
    pager;
    wal;
    overlay = Atomic.make overlay;
    tx = None;
    bulk = false;
    checkpoint_bytes;
    closed = false;
    group_window_ns = 0;
    glock = Mutex.create ();
    gcond = Condition.create ();
    g_seq = 0;
    g_synced = 0;
    g_leader = false;
    st_group_commits = 0;
    st_group_saved = 0;
    st_page_reads = Atomic.make 0;
    st_page_read_ns = Atomic.make 0;
    st_commits = 0;
    st_checkpoints = 0;
    st_checkpoint_ns = 0;
    st_obs = None;
  }

let open_path ?(checkpoint_bytes = default_checkpoint_bytes) ~path ~mode () =
  let pager =
    try Pager.open_path ~path ~mode
    with Pager.Corrupt _ as e -> (
      (* A crash while commit rewrote the superblock can tear it.  The
         fsync'd WAL holds everything needed to rebuild: the page size
         (log header) plus the last committed root and count.  Only a
         writer may repair the file. *)
      match
        if mode = Rw then Wal.recovery_page_size ~db_path:path else None
      with
      | Some page_size ->
          Disk_log.Log.warn (fun m ->
              m "%s: superblock unreadable; rebuilding from WAL" path);
          Pager.open_for_recovery ~path ~page_size
      | None -> raise e)
  in
  match mode with
  | Rw ->
      let wal = Wal.open_rw ~db_path:path ~page_size:(Pager.page_size pager) in
      ignore (recover_rw pager wal);
      make ~checkpoint_bytes ~wal:(Some wal) pager (empty_snapshot ())
  | Ro ->
      let snap = empty_snapshot () in
      (match Wal.open_ro_opt ~db_path:path with
      | None -> ()
      | Some wal ->
          let n =
            Wal.replay wal ~apply:(fun ~pages ~root ~count ->
                List.iter
                  (fun (id, payload) -> Hashtbl.replace snap.ov_pages id payload)
                  pages;
                (match root with None -> () | Some r -> snap.ov_root <- Some r);
                snap.ov_count <- Some count)
          in
          if n > 0 then
            Disk_log.Log.info (fun m ->
                m "%s: read-only open overlaying %d WAL transaction(s)" path n);
          Wal.close wal);
      make ~checkpoint_bytes ~wal:None pager snap

let create ?(checkpoint_bytes = default_checkpoint_bytes) ~path ~page_size () =
  (* The pager takes the file lock first, so a database another
     process holds keeps its WAL; once the lock is ours, a leftover WAL
     from a previous incarnation must not replay into the fresh file. *)
  let pager = Pager.create ~path ~page_size in
  Wal.remove_for ~db_path:path;
  let wal = Wal.open_rw ~db_path:path ~page_size in
  Wal.reset wal;
  make ~checkpoint_bytes ~wal:(Some wal) pager (empty_snapshot ())

let mode t = Pager.mode t.pager
let path t = Pager.path t.pager
let page_size t = Pager.page_size t.pager
let capacity t = Pager.capacity t.pager
let file_size t = Pager.file_size t.pager
let wal_size t = match t.wal with None -> 0 | Some w -> Wal.size w
let in_tx t = t.tx <> None

(** Cumulative I/O totals since open. *)
let io_totals t =
  let io_wal_fsyncs, io_wal_fsync_ns =
    match t.wal with None -> (0, 0) | Some w -> Wal.fsync_totals w
  in
  {
    io_wal_fsyncs;
    io_wal_fsync_ns;
    io_commits = t.st_commits;
    io_checkpoints = t.st_checkpoints;
    io_checkpoint_ns = t.st_checkpoint_ns;
    io_page_reads = Atomic.get t.st_page_reads;
    io_page_read_ns = Atomic.get t.st_page_read_ns;
    io_group_commits = t.st_group_commits;
    io_group_saved_fsyncs = t.st_group_saved;
  }

(** [set_metrics t registry ~labels] installs event-time duration
    histograms ([blas.disk.wal.fsync_ns], [blas.disk.checkpoint_ns])
    under [labels]; counts are left to scrape-time mirroring of
    {!io_totals}. *)
let set_metrics t registry ~labels =
  t.st_obs <-
    Some
      {
        ob_fsync_ns = Obs_metrics.histogram registry ~labels "blas.disk.wal.fsync_ns";
        ob_checkpoint_ns =
          Obs_metrics.histogram registry ~labels "blas.disk.checkpoint_ns";
      }

let page_count t =
  match t.tx with
  | Some tx -> tx.tx_count
  | None -> (
      match (Atomic.get t.overlay).ov_count with
      | Some n -> n
      | None -> Pager.count t.pager)

let root t =
  match t.tx with
  | Some { tx_root = Some r; _ } -> r
  | _ -> (
      match (Atomic.get t.overlay).ov_root with
      | Some r -> r
      | None -> Pager.root t.pager)

let read_page t id =
  let from_tx =
    match t.tx with Some tx -> Hashtbl.find_opt tx.writes id | None -> None
  in
  match from_tx with
  | Some payload -> payload
  | None -> (
      match Hashtbl.find_opt (Atomic.get t.overlay).ov_pages id with
      | Some payload -> payload
      | None ->
          let t0 = Blas_obs.Clock.now_ns () in
          let payload = Pager.read_page t.pager id in
          Atomic.incr t.st_page_reads;
          ignore
            (Atomic.fetch_and_add t.st_page_read_ns
               (Int64.to_int (Blas_obs.Clock.elapsed_ns t0)));
          payload)

let begin_tx t =
  if mode t <> Rw then invalid_arg "Store.begin_tx: read-only store";
  if t.bulk then invalid_arg "Store.begin_tx: bulk load in progress";
  if t.tx <> None then invalid_arg "Store.begin_tx: transaction already open";
  t.tx <-
    Some
      {
        writes = Hashtbl.create 64;
        order = [];
        tx_root = None;
        (* The effective count: a group-commit overlay may hold pages
           past what the pager has applied. *)
        tx_count = page_count t;
      }

let require_tx t what =
  match t.tx with
  | Some tx -> tx
  | None -> invalid_arg (Printf.sprintf "Store.%s: no open transaction" what)

(** Allocate a fresh page id past the end of the file.  The caller must
    write the page before commit (the store never leaves allocated
    holes because every allocation is immediately paired with a
    write by the layers above). *)
let alloc_page t =
  if t.bulk then begin
    let id = Pager.count t.pager + 1 in
    Pager.set_count t.pager id;
    id
  end
  else begin
    let tx = require_tx t "alloc_page" in
    tx.tx_count <- tx.tx_count + 1;
    tx.tx_count
  end

let write_page t id payload =
  if String.length payload > capacity t then
    invalid_arg "Store.write_page: payload exceeds page capacity";
  if t.bulk then Pager.write_page t.pager id payload
  else begin
    let tx = require_tx t "write_page" in
    if id < 1 || id > tx.tx_count then
      invalid_arg "Store.write_page: page id out of bounds";
    if not (Hashtbl.mem tx.writes id) then tx.order <- id :: tx.order;
    Hashtbl.replace tx.writes id payload
  end

let set_root t root =
  if t.bulk then Pager.set_root t.pager root
  else begin
    let tx = require_tx t "set_root" in
    tx.tx_root <- Some root
  end

let checkpoint_locked t =
  match t.wal with
  | None -> ()
  | Some wal ->
      let t0 = Blas_obs.Clock.now_ns () in
      Pager.sync t.pager;
      Wal.reset wal;
      let dt = Int64.to_int (Blas_obs.Clock.elapsed_ns t0) in
      t.st_checkpoints <- t.st_checkpoints + 1;
      t.st_checkpoint_ns <- t.st_checkpoint_ns + dt;
      (match t.st_obs with
      | Some ob -> Obs_metrics.observe ob.ob_checkpoint_ns (float_of_int dt)
      | None -> ())

(* Make every deferred commit durable with one WAL fsync, then apply
   the overlay to the main file and publish a fresh empty snapshot.
   Caller holds [glock].  Pager writes happen before the snapshot swap,
   so a reader racing the swap reads correct bytes either way (the
   atomic swap orders the plain pager writes for other domains). *)
let flush_pending_locked t =
  if t.g_seq > t.g_synced then begin
    let wal =
      match t.wal with Some w -> w | None -> assert false (* deferred ⇒ Rw *)
    in
    let batch = t.g_seq - t.g_synced in
    let _, fsync_ns0 = Wal.fsync_totals wal in
    Wal.fsync wal;
    (match t.st_obs with
    | Some ob ->
        let _, fsync_ns1 = Wal.fsync_totals wal in
        Obs_metrics.observe ob.ob_fsync_ns
          (float_of_int (fsync_ns1 - fsync_ns0))
    | None -> ());
    let snap = Atomic.get t.overlay in
    Hashtbl.iter (fun id payload -> Pager.write_page t.pager id payload)
      snap.ov_pages;
    (match snap.ov_root with None -> () | Some r -> Pager.set_root t.pager r);
    (match snap.ov_count with None -> () | Some n -> Pager.set_count t.pager n);
    Pager.flush_superblock t.pager;
    Atomic.set t.overlay (empty_snapshot ());
    t.g_synced <- t.g_seq;
    t.st_group_saved <- t.st_group_saved + (batch - 1);
    if Wal.size wal > t.checkpoint_bytes then checkpoint_locked t
  end

(** [set_group_commit t ~window_ms] turns group commit on (positive
    window) or off (zero).  With a window set, {!commit} becomes
    deferred-durable: it logs the transaction without fsync and parks
    its pages in the overlay; callers must invoke {!sync_pending}
    before acknowledging the update.

    Visibility caveat: the overlay is consulted by {!read_page}
    immediately, so a deferred commit's pages are visible to concurrent
    readers {e before} the batched fsync makes them durable.  The
    acknowledging writer still never acks a non-durable update, but a
    crash inside the window can lose an update that other readers
    already observed (read-uncommitted durability, as in most
    group-commit designs). *)
let set_group_commit t ~window_ms =
  if window_ms < 0. then invalid_arg "Store.set_group_commit: negative window";
  t.group_window_ns <- int_of_float (window_ms *. 1e6);
  if t.group_window_ns = 0 then begin
    (* Turning the window off must not strand deferred commits. *)
    Mutex.lock t.glock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.glock)
      (fun () -> flush_pending_locked t)
  end

(** Deferred commits not yet made durable (test/introspection hook). *)
let pending_commits t =
  Mutex.lock t.glock;
  let n = t.g_seq - t.g_synced in
  Mutex.unlock t.glock;
  n

(** Block until every deferred commit issued so far is durable.  The
    first waiter becomes the leader: it sleeps the group window so
    later updates can pile in, then flushes the whole batch with a
    single WAL fsync; followers just wait for the broadcast.  No-op
    when group commit is off or nothing is pending. *)
let sync_pending t =
  Mutex.lock t.glock;
  let target = t.g_seq in
  let rec wait () =
    if t.g_synced >= target then ()
    else if t.g_leader then begin
      Condition.wait t.gcond t.glock;
      wait ()
    end
    else begin
      t.g_leader <- true;
      let window = float_of_int t.group_window_ns /. 1e9 in
      Mutex.unlock t.glock;
      (* A failed sleep only shortens the batching window. *)
      (try if window > 0. then Unix.sleepf window with _ -> ());
      Mutex.lock t.glock;
      (* The flush can raise (WAL fsync / pager I/O: ENOSPC, EIO…).
         Leadership must be handed back and the followers woken even
         then — otherwise every later commit/sync/checkpoint waits on
         [gcond] forever instead of surfacing the error. *)
      Fun.protect
        ~finally:(fun () ->
          t.g_leader <- false;
          Condition.broadcast t.gcond)
        (fun () -> flush_pending_locked t);
      wait ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.glock)
    (fun () -> wait ())

let checkpoint t =
  if t.tx <> None then invalid_arg "Store.checkpoint: transaction open";
  match t.wal with
  | None -> ()
  | Some _ ->
      Mutex.lock t.glock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.glock)
        (fun () ->
          flush_pending_locked t;
          checkpoint_locked t)

let commit t =
  let tx = require_tx t "commit" in
  let wal =
    match t.wal with Some w -> w | None -> assert false (* Rw implies wal *)
  in
  let pages =
    List.rev_map (fun id -> (id, Hashtbl.find tx.writes id)) tx.order
  in
  (* 1. Force to log.  The root is always included — even unchanged —
     so that a torn superblock can be rebuilt from the WAL alone.  The
     effective root is used: with group commit a newer root may still
     be sitting in the overlay. *)
  let root = match tx.tx_root with Some r -> Some r | None -> Some (root t) in
  if t.group_window_ns > 0 then begin
    (* Deferred durability: log without fsync and park the pages in the
       overlay; the main file stays untouched until the group flush so
       the no-steal invariant (WAL fsync before main-file apply) holds.
       The snapshot is mutated in place — safe because updates hold the
       document's exclusive lock, so no reader races these writes.
       Once that lock is released the parked pages are readable before
       they are durable — see the visibility caveat on
       [set_group_commit]. *)
    Mutex.lock t.glock;
    Wal.append_tx wal ~sync:false ~pages ~root ~count:tx.tx_count;
    let snap = Atomic.get t.overlay in
    List.iter
      (fun (id, payload) -> Hashtbl.replace snap.ov_pages id payload)
      pages;
    (match tx.tx_root with None -> () | Some r -> snap.ov_root <- Some r);
    snap.ov_count <- Some tx.tx_count;
    t.g_seq <- t.g_seq + 1;
    t.st_commits <- t.st_commits + 1;
    t.st_group_commits <- t.st_group_commits + 1;
    Mutex.unlock t.glock;
    t.tx <- None
  end
  else begin
    let _, fsync_ns0 = Wal.fsync_totals wal in
    Wal.append_tx wal ~pages ~root ~count:tx.tx_count;
    t.st_commits <- t.st_commits + 1;
    (match t.st_obs with
    | Some ob ->
        let _, fsync_ns1 = Wal.fsync_totals wal in
        Obs_metrics.observe ob.ob_fsync_ns
          (float_of_int (fsync_ns1 - fsync_ns0))
    | None -> ());
    (* 2. Apply to the main file; the fsync'd WAL redoes this on crash. *)
    List.iter (fun (id, payload) -> Pager.write_page t.pager id payload) pages;
    (match tx.tx_root with None -> () | Some r -> Pager.set_root t.pager r);
    Pager.set_count t.pager tx.tx_count;
    Pager.flush_superblock t.pager;
    t.tx <- None;
    (* 3. Bound the WAL. *)
    if Wal.size wal > t.checkpoint_bytes then checkpoint t
  end

let abort t =
  match t.tx with
  | None -> ()
  | Some _ -> t.tx <- None

(** [bulk_load t f] runs [f] with page writes going straight to the
    file, bypassing the WAL — valid only on a fresh (empty) store,
    where a crash mid-load just leaves a file the caller re-creates.
    Ends with superblock flush + fsync so the result is durable. *)
let bulk_load t f =
  if mode t <> Rw then invalid_arg "Store.bulk_load: read-only store";
  if Pager.count t.pager <> 0 then
    invalid_arg "Store.bulk_load: store is not empty";
  if t.tx <> None then invalid_arg "Store.bulk_load: transaction open";
  t.bulk <- true;
  Fun.protect
    ~finally:(fun () -> t.bulk <- false)
    (fun () ->
      let v = f () in
      Pager.flush_superblock t.pager;
      Pager.sync t.pager;
      v)

(** Simulate a process kill (fault-injection tests): drop the
    descriptors without syncing, truncating or writing anything, so
    the next [open_path] sees exactly the bytes that reached the
    files. *)
let crash t =
  if not t.closed then begin
    t.closed <- true;
    t.tx <- None;
    (match t.wal with Some wal -> Wal.close wal | None -> ());
    Pager.close t.pager
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.wal with
    | Some wal ->
        if t.tx <> None then abort t;
        (* Deferred commits become durable before the WAL is reset, and
           the main file is made self-contained so a later read-only
           open needs no WAL overlay. *)
        Mutex.lock t.glock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.glock)
          (fun () -> flush_pending_locked t);
        Pager.sync t.pager;
        Wal.reset wal;
        Wal.close wal
    | None -> ());
    Pager.close t.pager
  end
