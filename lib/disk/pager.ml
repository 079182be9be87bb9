(** File-backed pager: fixed-size checksummed pages plus a page-zero
    superblock.

    File layout: page [i] occupies bytes [i*page_size .. (i+1)*page_size).
    Page 0 is the superblock; user pages are numbered from 1.  Every
    page is framed as

    {v [u32 crc][u32 len][payload, len <= page_size - 8] v}

    where the CRC covers the page id followed by the payload, so a
    misdirected write (right bytes, wrong offset) is caught as
    corruption too.  Bytes past [len] within the page are ignored.

    The superblock payload is

    {v "BLASDB1\n" [u32 version][u32 page_size][u32 page_count][root string] v}

    where [root] is an opaque blob owned by the layer above (BLAS
    stores the catalog chain head there).  The pager itself has no
    durability protocol: {!write_page} and {!flush_superblock} hit the
    file immediately and unsynced.  Atomicity lives in {!Store}, which
    runs every mutation through the WAL first.

    A write handle takes an exclusive [lockf] lock on byte 0, read
    handles take a shared one, so two processes cannot corrupt the same
    database file. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type mode = Ro | Rw

type t = {
  path : string;
  fd : Unix.file_descr;
  mode : mode;
  page_size : int;
  mutable count : int;  (** user pages; valid ids are 1..count *)
  mutable root : string;
  lock : Mutex.t;  (** serializes fd seeks/reads/writes across domains *)
  mutable closed : bool;
}

let magic = "BLASDB1\n"
let version = 1
let header_bytes = 8
let min_page_size = 128
let max_page_size = 1 lsl 24

let capacity t = t.page_size - header_bytes
let page_size t = t.page_size
let count t = t.count
let root t = t.root
let mode t = t.mode
let path t = t.path

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then invalid_arg "Pager: handle is closed"

let check_rw t =
  check_open t;
  if t.mode <> Rw then invalid_arg "Pager: read-only handle"

(* [lockf] locks the region starting at the current offset; we lock the
   first byte of the file.  Locks die with the fd at close. *)
let acquire_lock fd mode path =
  ignore (Unix.LargeFile.lseek fd 0L Unix.SEEK_SET);
  let kind = match mode with Rw -> Unix.F_TLOCK | Ro -> Unix.F_TRLOCK in
  try Unix.lockf fd kind 1
  with Unix.Unix_error ((EAGAIN | EACCES), _, _) ->
    corrupt "%s: database file is locked by another process" path

let frame ~page_id payload =
  let crc =
    Checksum.update (Checksum.digest (Wire.u32_to_string page_id)) payload
  in
  let buf = Buffer.create (String.length payload + header_bytes) in
  Wire.write_u32 buf crc;
  Wire.write_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let unframe ~page_id ~page_size raw =
  if String.length raw < header_bytes then
    corrupt "page %d: short read (%d bytes)" page_id (String.length raw);
  let r = Wire.reader raw in
  let crc = Wire.read_u32 r in
  let len = Wire.read_u32 r in
  if len > page_size - header_bytes then
    corrupt "page %d: length %d exceeds page capacity" page_id len;
  if String.length raw < header_bytes + len then
    corrupt "page %d: truncated payload" page_id;
  let payload = String.sub raw header_bytes len in
  let expect =
    Checksum.update (Checksum.digest (Wire.u32_to_string page_id)) payload
  in
  if crc <> expect then corrupt "page %d: checksum mismatch" page_id;
  payload

let superblock_payload ~page_size ~count ~root =
  let buf = Buffer.create (64 + String.length root) in
  Buffer.add_string buf magic;
  Wire.write_u32 buf version;
  Wire.write_u32 buf page_size;
  Wire.write_u32 buf count;
  Wire.write_string buf root;
  let s = Buffer.contents buf in
  if String.length s > page_size - header_bytes then
    invalid_arg "Pager: superblock root blob exceeds page capacity";
  s

let write_superblock_fd fd ~page_size ~count ~root =
  Io.pwrite fd ~off:0 (frame ~page_id:0 (superblock_payload ~page_size ~count ~root))

let create ~path ~page_size =
  if page_size < min_page_size || page_size > max_page_size then
    invalid_arg "Pager.create: unreasonable page size";
  let fd = Unix.openfile path [ O_RDWR; O_CREAT ] 0o644 in
  (match acquire_lock fd Rw path with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  Io.ftruncate fd 0;
  write_superblock_fd fd ~page_size ~count:0 ~root:"";
  {
    path;
    fd;
    mode = Rw;
    page_size;
    count = 0;
    root = "";
    lock = Mutex.create ();
    closed = false;
  }

(** Opens a file whose superblock failed validation — torn by a crash
    mid-commit — trusting the caller to rebuild it from the WAL.
    [page_size] comes from the WAL header.  The in-memory count/root
    start empty; the handle is unusable until the caller has replayed
    the log (which sets both and flushes the superblock). *)
let open_for_recovery ~path ~page_size =
  if page_size < min_page_size || page_size > max_page_size then
    invalid_arg "Pager.open_for_recovery: unreasonable page size";
  let fd = Unix.openfile path [ O_RDWR ] 0o644 in
  (match acquire_lock fd Rw path with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  {
    path;
    fd;
    mode = Rw;
    page_size;
    count = 0;
    root = "";
    lock = Mutex.create ();
    closed = false;
  }

(** Sniffs whether [path] starts with the pager magic (inside the page
    frame), without taking locks. *)
let looks_like_db path =
  match Unix.openfile path [ O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let head = Io.pread fd ~off:0 (header_bytes + String.length magic) in
          String.length head = header_bytes + String.length magic
          && String.sub head header_bytes (String.length magic) = magic)

let open_path ~path ~mode =
  let flags = match mode with Ro -> [ Unix.O_RDONLY ] | Rw -> [ Unix.O_RDWR ] in
  let fd = Unix.openfile path flags 0o644 in
  match
    acquire_lock fd mode path;
    (* Read a generous prefix: enough for the header even before we know
       the real page size. *)
    let head = Io.pread fd ~off:0 4096 in
    if String.length head < header_bytes then
      corrupt "%s: too short to be a database file" path;
    let r = Wire.reader head in
    let crc = Wire.read_u32 r in
    let len = Wire.read_u32 r in
    let raw =
      if String.length head >= header_bytes + len then
        String.sub head header_bytes (min len (String.length head - header_bytes))
      else Io.pread fd ~off:header_bytes len
    in
    if String.length raw < len then corrupt "%s: truncated superblock" path;
    let expect = Checksum.update (Checksum.digest (Wire.u32_to_string 0)) raw in
    if crc <> expect then corrupt "%s: superblock checksum mismatch" path;
    let r = Wire.reader raw in
    let m = Wire.read_bytes r (String.length magic) in
    if m <> magic then corrupt "%s: not a BLAS database file" path;
    let v = Wire.read_u32 r in
    if v <> version then corrupt "%s: unsupported format version %d" path v;
    let page_size = Wire.read_u32 r in
    if page_size < min_page_size || page_size > max_page_size then
      corrupt "%s: implausible page size %d" path page_size;
    if len > page_size - header_bytes then
      corrupt "%s: superblock overflows its page" path;
    let count = Wire.read_u32 r in
    let root = Wire.read_string r in
    {
      path;
      fd;
      mode;
      page_size;
      count;
      root;
      lock = Mutex.create ();
      closed = false;
    }
  with
  | t -> t
  | exception e ->
      Unix.close fd;
      (match e with Wire.Truncated -> corrupt "%s: truncated superblock" path | e -> raise e)

let read_page t id =
  check_open t;
  if id < 1 || id > t.count then
    corrupt "page %d: out of bounds (count %d)" id t.count;
  let raw =
    with_lock t (fun () -> Io.pread t.fd ~off:(id * t.page_size) t.page_size)
  in
  unframe ~page_id:id ~page_size:t.page_size raw

(** [write_page t id payload] writes a page immediately (no WAL, no
    sync).  [id] may exceed [count t]; callers extend the page count via
    {!set_count} + {!flush_superblock} once the tail pages are in
    place. *)
let write_page t id payload =
  check_rw t;
  if id < 1 then invalid_arg "Pager.write_page: page ids start at 1";
  if String.length payload > capacity t then
    invalid_arg "Pager.write_page: payload exceeds page capacity";
  let framed = frame ~page_id:id payload in
  with_lock t (fun () -> Io.pwrite t.fd ~off:(id * t.page_size) framed)

let set_count t n =
  check_rw t;
  if n < 0 then invalid_arg "Pager.set_count";
  t.count <- n

let set_root t root =
  check_rw t;
  t.root <- root

(** Write the in-memory [count]/[root] into page 0 (unsynced). *)
let flush_superblock t =
  check_rw t;
  with_lock t (fun () ->
      write_superblock_fd t.fd ~page_size:t.page_size ~count:t.count
        ~root:t.root)

let sync t =
  check_rw t;
  with_lock t (fun () -> Io.fsync t.fd)

let file_size t =
  check_open t;
  (Unix.fstat t.fd).st_size

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end
