(** The BLAS index generator (Section 4): consumes a parsed document and
    produces both storage layouts of the experimental setup
    (Section 5.2.1) — the SP relation (plabel, start, end, level, data)
    clustered by {plabel, start} for BLAS, and the SD relation
    (tag, start, end, level, data) clustered by {tag, start} for the
    D-labeling baseline.  Both describe the same nodes with the same
    D-labels, so results are comparable across approaches.

    A storage is either memory-resident (its pages in an in-memory page
    store) or disk-backed (opened from a database file by
    [Blas.Database]); both hold the same paged tables.  For disk-backed storages the
    labeled document model is lazy — read it through {!doc}, never
    assume it is materialized.

    The record is deliberately transparent: benches and ablations swap
    out tables to measure storage variants. *)

type doc_slot

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
  doc_slot : doc_slot;  (** lazy document model — read via {!doc} *)
  mutable guide : Blas_xml.Dataguide.t;
      (** resident dataguide (planning must not force the document) *)
  mutable table : Blas_label.Tag_table.t;
  mutable sp : Blas_rel.Table.t;
  mutable sd : Blas_rel.Table.t;
  pool : Blas_rel.Buffer_pool.t;  (** page cache shared by SP and SD *)
  cache : Qcache.t;  (** the query cache (disabled by default) *)
  mutable disk : disk option;  (** present on disk-backed storages *)
  mutable ostats : Blas_optimizer.Stats.t option;
      (** optimizer statistics — read via {!ostats} *)
  mutable codec : Blas_rel.Codec.format;
      (** the active page codec — read via {!codec} *)
}

(** The labeled document model, materializing it on first use for
    disk-backed storages (a full SD scan — avoid on the query path). *)
val doc : t -> Blas_xpath.Doc.t

(** Install an updated document model (and its dataguide). *)
val set_doc : t -> Blas_xpath.Doc.t -> unit

(** Whether the document model is currently materialized. *)
val doc_resident : t -> bool

(** Drop a lazily rebuilt document model to free memory (no-op on
    memory-resident storages). *)
val drop_doc : t -> unit

(** [of_doc doc] builds SP and SD on an in-memory page store: the same
    4 KiB pages at 0.9 fill under [codec] (default
    {!Blas_rel.Codec.default_format}) and page directories as a
    database file of [doc] with that codec.  [pool_capacity] is the buffer pool size in
    pages (default 1024).  [collect_stats] (default true) also gathers
    optimizer statistics in the same pass over the nodes. *)
val of_doc :
  ?pool_capacity:int ->
  ?collect_stats:bool ->
  ?codec:Blas_rel.Codec.format ->
  Blas_xpath.Doc.t ->
  t

val of_tree : ?pool_capacity:int -> Blas_xml.Types.tree -> t

(** @raise Blas_xml.Types.Parse_error on malformed XML. *)
val of_string : ?pool_capacity:int -> string -> t

(** [assemble] wires a storage from already-built components — the
    disk-open path: the document model stays lazy behind [build_doc]. *)
val assemble :
  ?codec:Blas_rel.Codec.format ->
  build_doc:(unit -> Blas_xpath.Doc.t) ->
  guide:Blas_xml.Dataguide.t ->
  table:Blas_label.Tag_table.t ->
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

val set_ostats : t -> Blas_optimizer.Stats.t option -> unit

(** The active page codec (v1 row-major or v2 compact columnar).  It
    shapes the page cuts, hence page counts and plan pricing. *)
val codec : t -> Blas_rel.Codec.format

val set_codec : t -> Blas_rel.Codec.format -> unit

(** One-pass statistics collection over a labeled document (used by
    index build and by [Blas.Optimizer.refresh]). *)
val collect_ostats :
  ?seed:int -> ?epoch:int -> Blas_xpath.Doc.t -> Blas_optimizer.Stats.t
