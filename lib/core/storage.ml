(** The BLAS index generator (Section 4, "Index Generator" box of Figure
    6): consumes a parsed document and produces both storage layouts of
    the experimental setup (Section 5.2.1):

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
    both.  For a disk-backed storage the labeled document model is
    {e lazy}: queries run entirely from the paged tables and the
    resident catalog, and the [Doc.t] is only materialized — by
    scanning SD — when something genuinely needs the tree
    (naive-oracle verification, XML output, navigation).  Use {!doc} to read it; never assume it is resident. *)

(* The document slot: either a resident model or a thunk that rebuilds
   it on demand (disk-backed storages scan SD).  Guarded by a global
   mutex so concurrent query domains materialize it once. *)
type doc_slot = {
  mutable dv : Blas_xpath.Doc.t option;
  mutable dbuild : (unit -> Blas_xpath.Doc.t) option;
}

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
  doc_slot : doc_slot;
  mutable guide : Blas_xml.Dataguide.t;
      (* resident copy of the dataguide: the planner must not force the
         document of a disk-backed storage just to read path structure *)
  mutable table : Blas_label.Tag_table.t;
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

let doc_lock = Mutex.create ()

(** The labeled document model, materializing it on first use for
    disk-backed storages (a full SD scan — avoid on the query path). *)
let doc t =
  match t.doc_slot.dv with
  | Some d -> d
  | None ->
    Mutex.lock doc_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock doc_lock)
      (fun () ->
        match t.doc_slot.dv with
        | Some d -> d
        | None ->
          let build =
            match t.doc_slot.dbuild with
            | Some b -> b
            | None -> assert false (* a slot always has a value or a builder *)
          in
          let d = build () in
          t.doc_slot.dv <- Some d;
          d)

let set_doc t d =
  t.doc_slot.dv <- Some d;
  t.guide <- d.Blas_xpath.Doc.guide

(** Whether the document model is currently materialized. *)
let doc_resident t = t.doc_slot.dv <> None

(** Drop a lazily rebuilt document model (disk-backed storages only; a
    memory-resident storage has no builder to fall back on). *)
let drop_doc t =
  if t.doc_slot.dbuild <> None then t.doc_slot.dv <- None

(* Default buffer pool: 1024 pages — small enough that the evaluation
   data sets do not fit entirely, as on the paper's machine. *)
let default_pool_capacity = 1024

(** One-pass optimizer statistics over the labeled nodes: value
    reservoirs beside the document's counted DataGuide. *)
let collect_ostats ?seed ?epoch (doc : Blas_xpath.Doc.t) =
  Blas_optimizer.Stats.collect ?seed ?epoch ~guide:doc.guide
    (List.map
       (fun (n : Blas_xpath.Doc.node) ->
         { Blas_optimizer.Stats.nv_tag = n.tag; nv_data = n.data })
       doc.all)

(** [of_doc doc] builds both relations on an in-memory page store —
    the same 4 KiB pages at 0.9 fill and page directories that a
    database file of [doc] holds.  P-labels come from the node's
    source path (Definition 3.3), which the test suite checks against
    the streaming Algorithm 2. *)
let of_doc ?(pool_capacity = default_pool_capacity) ?(collect_stats = true)
    ?(codec = Blas_rel.Codec.default_format) (doc : Blas_xpath.Doc.t) =
  let table = Blas_label.Tag_table.of_dataguide doc.guide in
  let store = Blas_rel.Page_store.memory ~pool_capacity ~codec () in
  let sp, sd = Blas_update.Layout.tables store table doc in
  let pool = store.Blas_rel.Page_store.pool in
  (* the bulk load's writes are not this storage's traffic *)
  Blas_rel.Buffer_pool.reset_stats pool;
  {
    doc_slot = { dv = Some doc; dbuild = None };
    guide = doc.guide;
    table;
    sp;
    sd;
    pool;
    cache = Qcache.create ();
    disk = None;
    ostats = (if collect_stats then Some (collect_ostats doc) else None);
    codec;
  }

(** [assemble] wires a storage from already-built components — the
    disk-open path ({!Database}): the document model stays lazy behind
    [build_doc]. *)
let assemble ?(codec = Blas_rel.Codec.V1) ~build_doc ~guide ~table ~sp ~sd
    ~pool () =
  {
    doc_slot = { dv = None; dbuild = Some build_doc };
    guide;
    table;
    sp;
    sd;
    pool;
    cache = Qcache.create ();
    disk = None;
    ostats = None;
    codec;
  }

(** [of_tree tree] parses nothing; it labels the already-built tree. *)
let of_tree ?pool_capacity tree = of_doc ?pool_capacity (Blas_xpath.Doc.of_tree tree)

(** [of_string input] builds the index from XML text. *)
let of_string ?pool_capacity input = of_tree ?pool_capacity (Blas_xml.Dom.parse input)

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

let set_ostats t s = t.ostats <- s

(** The active page codec (v1 row-major or v2 compact columnar).  It
    shapes the page cuts, hence page counts and plan pricing. *)
let codec t = t.codec

let set_codec t c = t.codec <- c
