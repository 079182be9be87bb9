(** Disk-backed databases (DESIGN.md §13): bulk-load a storage into a
    single `.blasdb` file, reopen it in O(pages touched), and run every
    update as one WAL-protected transaction with crash recovery on
    open. *)

type mode = Blas_disk.Store.mode = Ro | Rw

(** Structural damage in the file (bad checksum, bad magic, catalog
    that does not decode). *)
exception Corrupt of string

(** [looks_like_db path] sniffs the superblock magic without locking —
    distinguishes database files from XML and index files. *)
val looks_like_db : string -> bool

(** [create ?page_size ?fill ?codec ~path storage] bulk-loads [storage]
    into a fresh database file.  [codec] picks the page encoding
    (default {!Blas_rel.Codec.default_format}: v1, or v2 when
    [BLAS_TEST_COMPACT] is set); the choice is recorded in the catalog
    and v1 files keep their historical byte layout.  It bulk-loads into a
    fresh database file: data pages in cluster order
    at [fill] occupancy (default 0.9, leaving per-page headroom for
    in-place edits), then the catalog and superblock, then one fsync.
    Replaces any existing file at [path]; the file lock is taken before
    anything (the old file's WAL included) is touched.
    @raise Invalid_argument on a bad page size, or when [path] is
    [storage]'s own database file.
    @raise Corrupt when another process holds [path] open. *)
val create :
  ?page_size:int ->
  ?fill:float ->
  ?codec:Blas_rel.Codec.format ->
  path:string ->
  Storage.t ->
  unit

(** [same_file a b] — whether [a] and [b] name one existing file
    (same device and inode). *)
val same_file : string -> string -> bool

(** [open_ ?cache_pages ?stripes ~mode ~path ()] opens a database file
    as a storage whose tables read through a bounded page cache of
    [cache_pages] pages (default 256).  Read-write opens replay any
    committed WAL tail first (crash recovery) and truncate the WAL;
    read-only opens never write to either file.  Only the catalog
    becomes resident; the label columns (and the document model, a
    view of them) are built from SD only on demand.  A
    file older than catalog v6 holds the paper's decimal P-labels: a
    read-write open relabels its SP rows in one transaction first, a
    read-only open raises {!Corrupt} naming that upgrade.
    The returned storage answers queries, serves updates (each wrapped
    in one WAL transaction via [Storage.disk]), and must be released
    with {!Storage.close}.
    @raise Corrupt on structural damage
    @raise Sys_error on IO errors *)
val open_ :
  ?cache_pages:int -> ?stripes:int -> mode:mode -> path:string -> unit ->
  Storage.t
