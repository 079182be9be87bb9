(** The BLAS index generator (Section 4): consumes a parsed document and
    produces both storage layouts of the experimental setup
    (Section 5.2.1) — the SP relation (plabel, start, end, level, data)
    clustered by {plabel, start} for BLAS, and the SD relation
    (tag, start, end, level, data) clustered by {tag, start} for the
    D-labeling baseline.  Both describe the same nodes with the same
    D-labels, so results are comparable across approaches.

    A storage is either memory-resident (its pages in an in-memory page
    store) or disk-backed (opened from a database file by
    [Blas.Database]); both hold the same paged tables, the one copy of
    the document.  The one thing derived from them is the label
    columns ({!columns}): the index build fills them from the
    document's parse events and keeps them, an open builds them from SD
    on first use, and edits keep them current; the labeled document
    model ({!doc}) is a view of the columns, built on each call.  Never
    assume the columns are built.

    The record is deliberately transparent: benches and ablations swap
    out tables to measure storage variants. *)

(** The label columns, kept from the build or built on demand. *)
type derived

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

(** The disk half of a storage, as closures so this module need not
    know the database layer above it. *)
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

(** The index components are mutable so that {!Update} can edit a built
    index in place; queries read the current fields on every run. *)
type t = {
  derived : derived;  (** read via {!columns} *)
  mutable guide : Blas_xml.Dataguide.t;
      (** resident dataguide, the P-labels SP carries with it (planning
          and translation must not force the document) *)
  mutable sp : Blas_rel.Table.t;
  mutable sd : Blas_rel.Table.t;
  pool : Blas_rel.Buffer_pool.t;  (** page cache shared by SP and SD *)
  cache : Qcache.t;
      (** the query cache (result and scan layers disabled by default)
          and the plan memo *)
  mutable disk : disk option;  (** present on disk-backed storages *)
  mutable ostats : Blas_optimizer.Stats.t option;
      (** optimizer statistics — read via {!ostats} *)
  mutable codec : Blas_rel.Codec.format;
      (** the active page codec — read via {!codec} *)
}

(** The label columns edits run over: built with an in-memory storage,
    or from a scan of SD on first use after a database open
    ({!Blas_update.Columns.of_sd}); edits keep them current.
    @raise Blas_disk.Pager.Corrupt on SD rows that do not nest into
    one document. *)
val columns : t -> Blas_update.Columns.t

(** [scan_columns t] builds the label columns from a scan of SD and
    installs them, returning them with the counted guide of their
    paths (fresh labels) — what an open of a catalog that keeps no
    counts rebuilds its guide from.
    @raise Blas_disk.Pager.Corrupt as {!columns}. *)
val scan_columns : t -> Blas_update.Columns.t * Blas_xml.Dataguide.t

(** Whether the label columns are currently built. *)
val columns_resident : t -> bool

(** Drop the label columns (the tables were reloaded). *)
val drop_columns : t -> unit

(** The labeled document model: a view of the label columns, built on
    each call (O(document); avoid on the query path).  The caller holds
    the document's read lock: edits change the columns in place. *)
val doc : t -> Blas_xpath.Doc.t

(** [of_tree tree] builds SP and SD of [tree] on an in-memory page
    store: the tree's events ({!Blas_xml.Dom.iter_events}) go into the
    label columns ({!Blas_update.Columns.of_events}), which give the
    counted guide and both tables' rows by bucket passes, and stay
    resident.  The pages are the same 4 KiB pages at 0.9 fill under
    [codec] (default {!Blas_rel.Codec.default_format}) and the page
    directories as a database file of the tree with that codec.
    [pool_capacity] is the buffer pool size in pages (default 1024).
    [collect_stats] (default true) also gathers optimizer statistics
    from the columns.
    @raise Invalid_argument if the root is a text node. *)
val of_tree :
  ?pool_capacity:int ->
  ?collect_stats:bool ->
  ?codec:Blas_rel.Codec.format ->
  Blas_xml.Types.tree ->
  t

(** [of_string input] is {!of_tree} of the parsed [input], built
    straight from the parser's events with no tree in between.
    @raise Blas_xml.Types.Parse_error on malformed XML.
    @raise Failure as {!Blas_xml.Dom.of_events} does on a document with
    no root element or two. *)
val of_string : ?pool_capacity:int -> string -> t

(** [assemble] wires a storage from already-built components — the
    disk-open path. *)
val assemble :
  ?codec:Blas_rel.Codec.format ->
  guide:Blas_xml.Dataguide.t ->
  sp:Blas_rel.Table.t ->
  sd:Blas_rel.Table.t ->
  pool:Blas_rel.Buffer_pool.t ->
  unit ->
  t

(** Flushes the buffer pool — the cold-cache protocol of Section 5.1.
    (Dirty pages are written back through the backing store first.) *)
val cold_cache : t -> unit

val pool : t -> Blas_rel.Buffer_pool.t

(** The disk half of a disk-backed storage; [None] for memory-resident
    ones. *)
val disk : t -> disk option

val set_disk : t -> disk -> unit

(** Close the underlying database file (no-op on memory-resident
    storages).  The storage must not be used afterwards. *)
val close : t -> unit

(** The per-storage query cache.  It starts disabled, so every run is
    bit-identical to the uncached pipeline until {!set_cache_enabled}
    turns it on (or a per-run [~cache:true] override does). *)
val cache : t -> Qcache.t

val set_cache_enabled : t -> bool -> unit

val cache_enabled : t -> bool

(** Per-layer hit/miss/size snapshot of this storage's cache. *)
val cache_stats : t -> Qcache.stats

(** The catalog the SQL planner resolves table names against ("sp" and
    "sd"). *)
val catalog : t -> string -> Blas_rel.Table.t option

val node_count : t -> int

val guide : t -> Blas_xml.Dataguide.t

(** Optimizer statistics, if collected at index time (or installed from
    a database catalog). *)
val ostats : t -> Blas_optimizer.Stats.t option

(** Installs statistics and flushes the plan memo
    ({!Qcache.flush_plans}): [Auto2]'s picks are priced from them. *)
val set_ostats : t -> Blas_optimizer.Stats.t option -> unit

(** The active page codec (v1 row-major or v2 compact columnar).  It
    shapes the page cuts, hence page counts and plan pricing. *)
val codec : t -> Blas_rel.Codec.format
