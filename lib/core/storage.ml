(** The BLAS index generator (Section 4, "Index Generator" box of Figure
    6): turns a document's parse events into its label columns
    ({!Blas_update.Columns.of_events}) and the columns into both
    storage layouts of the experimental setup (Section 5.2.1):

    - [SP(plabel, start, end, level, data)], clustered by
      {plabel, start} — the BLAS relation;
    - [SD(tag, start, end, level, data)], clustered by {tag, start} —
      the D-labeling baseline relation.

    Each table's clustered page directory is its only index: every
    generated plan selects on the leading cluster-key column, and
    D-joins are merge joins that never probe [start] or [data].

    ({!Blas_update.Layout} defines both.)

    Both relations describe the same element nodes with the same D-labels,
    so results are comparable across approaches.

    A storage is either memory-resident (built from a document, its
    pages in an in-memory page store) or disk-backed (opened from a
    database file by {!Database}); the tables are the same pages in
    both, and they are the one copy of the document.  One thing is
    derived from them: the label columns ({!Blas_update.Columns}),
    which an index build makes first and keeps, {!columns} builds from
    a scan of SD on first use after an open, edits keep current, and a
    reload of the tables drops.  The labeled document model ({!doc}) is
    a view of the columns, built on each call, for whatever genuinely
    needs the tree (naive-oracle verification, XML output,
    navigation).

    Queries read neither the columns nor a view: they run entirely from
    the paged tables and the resident guide. *)

(* The label columns, the one copy derived from the tables: kept from
   an index build, or built on first use after an open. *)
type derived = { mutable cols : Blas_update.Columns.t option }

(** Per-table layout economics of a disk-backed storage: how the
    active codec is spending the bytes. *)
type table_stats = {
  ts_name : string;
  ts_entries : int;  (** clustered rows *)
  ts_data_pages : int;
  ts_payload_bytes : int;  (** stored data-page payload bytes *)
  ts_v1_bytes : int;
      (** the same rows re-encoded with the v1 codec — the
          compression-ratio baseline *)
}

(** Observability snapshot of a disk-backed storage (see
    [Blas.Database]). *)
type disk_stats = {
  dstat_path : string;
  dstat_file_bytes : int;
  dstat_page_size : int;
  dstat_page_count : int;  (** pages in the file (excluding superblock) *)
  dstat_live_pages : int;  (** pages referenced by tables + catalog *)
  dstat_free_pages : int;  (** pages on the free list *)
  dstat_live_bytes : int;  (** payload bytes across live pages *)
  dstat_wal_bytes : int;
  dstat_cache_pages : int;  (** buffer pool capacity *)
  dstat_cache_resident : int;  (** resident pages carrying payloads *)
  dstat_codec : string;  (** page codec name ("v1" / "v2") *)
  dstat_catalog_pages : int;  (** pages in the catalog chain *)
  dstat_catalog_writes : int;
      (** catalog chain pages commits have written since open: with the
          commit count, the catalog's write amplification *)
  dstat_tables : table_stats list;
}

(** The disk half of a storage, as closures so {!Storage} need not know
    the database module (which is layered above it). *)
type disk = {
  dk_path : string;
  dk_readonly : bool;
  dk_stats : unit -> disk_stats;
  dk_io : unit -> Blas_disk.Store.io;
      (** cumulative I/O totals (fsyncs, checkpoints, page reads, each
          with nanoseconds) — the serving layer mirrors them into
          metrics and derives trace spans from deltas *)
  dk_wal_bytes : unit -> int;
      (** current WAL backlog, cheaply (unlike [dk_stats], which scans
          live pages) — safe to poll on every metrics scrape *)
  dk_set_metrics : Blas_obs.Metrics.t -> labels:(string * string) list -> unit;
      (** install event-time duration histograms (WAL fsync,
          checkpoint) in a registry *)
  dk_with_tx :
    (unit -> Blas_update.Update_engine.report) ->
    Blas_update.Update_engine.report;
      (** wrap one update in a WAL-protected transaction *)
  dk_set_group_commit : window_ms:float -> unit;
      (** enable (positive window) or disable (zero) deferred-durability
          group commit on the underlying store *)
  dk_sync_commits : unit -> unit;
      (** block until every deferred commit is durable — the serving
          layer calls this after releasing the document's write lock so
          concurrent updates share one WAL fsync *)
  dk_checkpoint : unit -> unit;
  dk_close : unit -> unit;
  dk_crash : unit -> unit;
      (** drop descriptors without syncing — simulated kill for the
          crash-recovery tests *)
  dk_check_catalog : unit -> int list;
      (** re-read the committed catalog chain and check it against the
          resident components (byte for byte, after a commit); returns
          the chain's page ids.  Raises [Blas_disk.Pager.Corrupt] on a
          mismatch *)
}

(* The index components are mutable so that the update subsystem
   ({!Update}) can edit a storage in place; queries always read the
   current components. *)
type t = {
  derived : derived;
  mutable guide : Blas_xml.Dataguide.t;
      (* resident copy of the dataguide and so of the P-labels: the
         planner must not force the document of a disk-backed storage
         just to read path structure *)
  mutable sp : Blas_rel.Table.t;
  mutable sd : Blas_rel.Table.t;
  pool : Blas_rel.Buffer_pool.t;
  cache : Qcache.t;
  mutable disk : disk option;
  mutable ostats : Blas_optimizer.Stats.t option;
      (* optimizer statistics; collected at index time, [None] until the
         disk-open path installs the persisted copy *)
  mutable codec : Blas_rel.Codec.format;
      (* the active page codec; for disk-backed storages the database
         sets it from the catalog *)
}

(* ------------------------------------------------------------------ *)
(* The derived copy                                                    *)

(* Guards the first build, so concurrent query domains build the
   columns once. *)
let derived_lock = Mutex.create ()

(** Builds the label columns from a scan of SD and installs them;
    returns them with the counted guide of their paths. *)
let scan_columns t =
  let cols, guide =
    Blas_update.Columns.of_sd (Blas_rel.Table.scan t.sd (Blas_rel.Counters.create ()))
  in
  t.derived.cols <- Some cols;
  (cols, guide)

(** The label columns: built with the storage, or from a scan of SD on
    first use after an open; edits keep them current. *)
let columns t =
  match t.derived.cols with
  | Some c -> c
  | None ->
    Mutex.protect derived_lock (fun () ->
        match t.derived.cols with Some c -> c | None -> fst (scan_columns t))

(** Whether the label columns are currently built. *)
let columns_resident t = t.derived.cols <> None

(** Drop the label columns (when the tables are reloaded). *)
let drop_columns t = t.derived.cols <- None

(** The labeled document model: a view of the label columns, built on
    each call (O(document)).  The caller holds the document's read
    lock: edits change the columns in place. *)
let doc t =
  Blas_xpath.Doc.of_root ~guide:t.guide (Blas_update.Columns.node (columns t) 0)

(* Default buffer pool: 1024 pages — small enough that the evaluation
   data sets do not fit entirely, as on the paper's machine. *)
let default_pool_capacity = 1024

(** [assemble] wires a storage from already-built components — the
    disk-open path ({!Database}). *)
let assemble ?(codec = Blas_rel.Codec.V1) ~guide ~sp ~sd ~pool () =
  {
    derived = { cols = None };
    guide;
    sp;
    sd;
    pool;
    cache = Qcache.create ();
    disk = None;
    ostats = None;
    codec;
  }

(* The storage of a document's label columns and counted guide: SP
   and SD bulk-loaded from the columns ({!Blas_update.Columns.tables})
   onto an in-memory page store, the columns kept resident and the
   statistics collected from them. *)
let of_columns ?(pool_capacity = default_pool_capacity) ?(collect_stats = true)
    ?(codec = Blas_rel.Codec.default_format) (cols, guide) =
  let store = Blas_rel.Page_store.memory ~pool_capacity ~codec () in
  let sp, sd = Blas_update.Columns.tables store ~guide cols in
  let pool = store.Blas_rel.Page_store.pool in
  (* the bulk load's writes are not this storage's traffic *)
  Blas_rel.Buffer_pool.reset_stats pool;
  let t = assemble ~codec ~guide ~sp ~sd ~pool () in
  t.derived.cols <- Some cols;
  if collect_stats then
    t.ostats <- Some (Blas_optimizer.Stats.collect (Blas_update.Columns.iter_values cols));
  t

(** [of_tree tree] labels the already-built tree: its events replayed
    into the label columns. *)
let of_tree ?pool_capacity ?collect_stats ?codec tree =
  (match tree with
  | Blas_xml.Types.Content _ -> invalid_arg "Doc.of_tree: root must be an element"
  | Element _ -> ());
  of_columns ?pool_capacity ?collect_stats ?codec
    (Blas_update.Columns.of_events (fun f -> Blas_xml.Dom.iter_events tree ~on_event:f))

(** [of_string input] builds the index from XML text: the parser's
    events go straight into the label columns. *)
let of_string ?pool_capacity input =
  of_columns ?pool_capacity
    (Blas_update.Columns.of_events (fun f -> Blas_xml.Sax.parse ~on_event:f input))

(** The catalog the SQL planner resolves table names against. *)
let catalog t name =
  match name with "sp" -> Some t.sp | "sd" -> Some t.sd | _ -> None

let node_count t = Blas_rel.Table.cardinality t.sp

let guide t = t.guide

(** [cold_cache t] flushes the buffer pool — the paper's experiments run
    each query on a cold cache (Section 5.1). *)
let cold_cache t = Blas_rel.Buffer_pool.flush t.pool

let pool t = t.pool

(** The disk half of a disk-backed storage; [None] for memory-resident
    ones. *)
let disk t = t.disk

let set_disk t d = t.disk <- Some d

(** Close the underlying database file (disk-backed storages; no-op
    otherwise).  The storage must not be used afterwards. *)
let close t = match t.disk with None -> () | Some d -> d.dk_close ()

(** The per-storage query cache (disabled by default; see {!Qcache}). *)
let cache t = t.cache

let set_cache_enabled t on = Qcache.set_enabled t.cache on

let cache_enabled t = Qcache.enabled t.cache

let cache_stats t = Qcache.stats t.cache

(** Optimizer statistics, if collected (or installed from the catalog). *)
let ostats t = t.ostats

let set_ostats t s =
  t.ostats <- s;
  Qcache.flush_plans t.cache

(** The active page codec (v1 row-major or v2 compact columnar).  It
    shapes the page cuts, hence page counts and plan pricing. *)
let codec t = t.codec
