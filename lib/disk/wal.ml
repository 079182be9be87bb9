(** Redo-only write-ahead log.

    The file starts with a fixed 16-byte header

    {v "BLASWAL1" [u32 page_size] [u32 crc of page_size] v}

    written when the log is created and preserved across {!reset}.  The
    page size duplicates the superblock's so that a crash which tears
    the superblock itself can still be recovered: the WAL header plus
    the last committed root/count rebuild it (see
    {!recovery_page_size}).

    A transaction is appended as a run of records followed by a commit
    marker, then fsync'd; only after the fsync returns does {!Store}
    touch the main file.  Each record is framed as

    {v [u32 crc][u32 len][u8 kind][payload, len bytes] v}

    with the CRC covering kind plus payload.  Record kinds:

    - [1] page image: [varint page_id][page payload]
    - [2] root blob: the new superblock root
    - [3] commit: [u32 new page count] — makes the preceding records
      of this transaction durable as a unit

    Replay scans from past the header, buffering records until a
    commit marker, and applies only complete transactions; a torn or
    checksum-failing record ends the scan, which is exactly the
    discard-the-torn-tail semantics recovery needs.  Uncommitted
    records before the tear are never applied because their commit
    marker is missing or follows the tear. *)

type t = {
  path : string;
  fd : Unix.file_descr;
  writable : bool;
  mutable pos : int;  (** append offset = bytes of valid log *)
  mutable closed : bool;
  (* Commit-path fsync totals (count and monotonic nanoseconds).  Only
     the single writer touches these — appends and resets serialize on
     the database transaction lock — so plain fields suffice. *)
  mutable fsyncs : int;
  mutable fsync_ns : int;
}

(* Record framing: [u32 crc][u32 len][u8 kind], then the payload. *)
let frame_len = 9

(** [frame_tx ~pages ~root ~count] — a transaction's records as the log
    holds them: each page image, the root if any, then the commit
    marker.  Every record is framed in place in one buffer of the exact
    size, its CRC taken over the kind byte and the payload where they
    lie. *)
let frame_tx ~pages ~root ~count =
  let root_len = match root with None -> 0 | Some r -> frame_len + String.length r in
  let total =
    List.fold_left
      (fun acc (id, payload) ->
        acc + frame_len + Wire.varint_size id + String.length payload)
      (root_len + frame_len + 4) pages
  in
  let b = Bytes.create total in
  (* Frames the record of [kind] at [at] whose payload [fill] writes
     from its first byte, returning the byte after it. *)
  let record at kind fill =
    Bytes.set_uint8 b (at + 8) kind;
    let stop = fill (at + frame_len) in
    Wire.set_u32 b (at + 4) (stop - at - frame_len);
    Wire.set_u32 b at (Checksum.update_bytes Checksum.empty b (at + 8) (stop - at - 8));
    stop
  in
  let blit s at =
    Bytes.blit_string s 0 b at (String.length s);
    at + String.length s
  in
  let at =
    List.fold_left
      (fun at (id, payload) -> record at 1 (fun at -> blit payload (Wire.set_varint b at id)))
      0 pages
  in
  let at = match root with None -> at | Some r -> record at 2 (blit r) in
  ignore
    (record at 3 (fun at ->
         Wire.set_u32 b at count;
         at + 4));
  Bytes.unsafe_to_string b

let wal_path db_path = db_path ^ ".wal"
let header_magic = "BLASWAL1"
let header_len = String.length header_magic + 8

let encode_header ~page_size =
  let ps = Wire.u32_to_string page_size in
  let buf = Buffer.create header_len in
  Buffer.add_string buf header_magic;
  Buffer.add_string buf ps;
  Wire.write_u32 buf (Checksum.digest ps);
  Buffer.contents buf

(** Validates the log header and returns the recorded page size; [None]
    for a missing, short or torn header (possible only if the process
    died while creating the log, i.e. before any transaction could
    commit). *)
let header_page_size src =
  if String.length src < header_len then None
  else
    let m = String.length header_magic in
    if String.sub src 0 m <> header_magic then None
    else
      let r = Wire.reader (String.sub src m 8) in
      let page_size = Wire.read_u32 r in
      let crc = Wire.read_u32 r in
      if crc = Checksum.digest (Wire.u32_to_string page_size) then
        Some page_size
      else None

(** Opens the WAL next to a database file for read-only recovery;
    [None] when no WAL file exists (nothing to replay). *)
let open_ro_opt ~db_path =
  let path = wal_path db_path in
  if Sys.file_exists path then
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let pos = (Unix.fstat fd).st_size in
    Some { path; fd; writable = false; pos; closed = false; fsyncs = 0; fsync_ns = 0 }
  else None

let open_rw ~db_path ~page_size =
  let path = wal_path db_path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).st_size in
  let header =
    if size < header_len then None
    else header_page_size (Io.pread fd ~off:0 header_len)
  in
  let pos =
    match header with
    | Some ps when ps = page_size -> size
    | _ ->
        (* Missing or torn header, or a stale log from a different
           incarnation of the file: such a log cannot hold commits for
           this database, so start it fresh. *)
        Io.ftruncate fd 0;
        Io.pwrite fd ~off:0 (encode_header ~page_size);
        Io.fsync fd;
        header_len
  in
  { path; fd; writable = true; pos; closed = false; fsyncs = 0; fsync_ns = 0 }

(** Bytes of committed log payload past the header. *)
let size t = max 0 (t.pos - header_len)

(* Timed fsync on the log descriptor, accumulated into the totals the
   store mirrors into its metrics registry. *)
let timed_fsync t =
  let t0 = Blas_obs.Clock.now_ns () in
  Io.fsync t.fd;
  t.fsyncs <- t.fsyncs + 1;
  t.fsync_ns <- t.fsync_ns + Int64.to_int (Blas_obs.Clock.elapsed_ns t0)

(** Commit-path fsyncs so far: count and total monotonic nanoseconds. *)
let fsync_totals t = (t.fsyncs, t.fsync_ns)

(** Force everything appended so far to disk.  Group commit appends
    several transactions with [~sync:false] and then issues one of
    these for the whole batch. *)
let fsync t =
  if not t.writable then invalid_arg "Wal.fsync: read-only";
  timed_fsync t

(** Appends a whole transaction (page images, optional root, commit
    marker carrying the new page count) as one write, then fsyncs.
    [~sync:false] skips the fsync so a later {!fsync} can cover a batch
    of transactions at once — the caller must not acknowledge the
    commit until that fsync has run. *)
let append_tx ?(sync = true) t ~pages ~root ~count =
  if not t.writable then invalid_arg "Wal.append_tx: read-only";
  let s = frame_tx ~pages ~root ~count in
  Io.pwrite t.fd ~off:t.pos s;
  if sync then timed_fsync t;
  t.pos <- t.pos + String.length s

(** [replay t ~apply] scans the log and calls [apply] once per fully
    committed transaction, in order.  Returns the number of committed
    transactions.  Also rewinds [pos] to the end of the last committed
    transaction so that a writable log discards the torn tail on the
    next append/reset. *)
let rec replay t ~apply =
  let len = (Unix.fstat t.fd).st_size in
  let src = Io.pread t.fd ~off:0 len in
  match header_page_size src with
  | None ->
      (* A log without a valid header never held a commit. *)
      if len > 0 then
        Disk_log.Log.info (fun m -> m "%s: ignoring headerless WAL" t.path);
      0
  | Some _ -> replay_body t src ~apply

and replay_body t src ~apply =
  let r = Wire.reader src in
  r.Wire.pos <- header_len;
  let committed = ref 0 in
  let last_good = ref header_len in
  let pending = ref [] in
  let pending_root = ref None in
  (try
     while not (Wire.eof r) do
       let crc = Wire.read_u32 r in
       let plen = Wire.read_u32 r in
       let kind = Wire.read_u8 r in
       let payload = Wire.read_bytes r plen in
       (* kind and payload lie side by side in [src] *)
       if crc <> Checksum.update_sub Checksum.empty src (r.Wire.pos - plen - 1) (plen + 1)
       then raise Exit;
       (match kind with
       | 1 ->
           let pr = Wire.reader payload in
           let id = Wire.read_varint pr in
           let page = Wire.read_bytes pr (Wire.remaining pr) in
           pending := (id, page) :: !pending
       | 2 -> pending_root := Some payload
       | 3 ->
           let cr = Wire.reader payload in
           let count = Wire.read_u32 cr in
           apply ~pages:(List.rev !pending) ~root:!pending_root ~count;
           pending := [];
           pending_root := None;
           incr committed;
           last_good := r.Wire.pos
       | _ -> raise Exit)
     done
   with Wire.Truncated | Exit ->
     Disk_log.Log.info (fun m ->
         m "%s: discarding torn WAL tail after byte %d" t.path !last_good));
  t.pos <- !last_good;
  !committed

(** Truncate the log to empty — just the header — after a checkpoint
    has made the main file durable. *)
let reset t =
  if not t.writable then invalid_arg "Wal.reset: read-only";
  Io.ftruncate t.fd header_len;
  timed_fsync t;
  t.pos <- header_len

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

(** [recovery_page_size ~db_path] returns the page size recorded in the
    WAL header when the log can rebuild a torn superblock: its header is
    valid and at least one committed transaction carries a root record
    (commit always logs the root, so any committed tail qualifies).
    [None] means the superblock cannot be reconstructed from the log. *)
let recovery_page_size ~db_path =
  match open_ro_opt ~db_path with
  | None -> None
  | Some wal ->
      Fun.protect
        ~finally:(fun () -> close wal)
        (fun () ->
          let src = Io.pread wal.fd ~off:0 (Unix.fstat wal.fd).st_size in
          match header_page_size src with
          | None -> None
          | Some page_size ->
              let have_root = ref false in
              ignore
                (replay_body wal src ~apply:(fun ~pages:_ ~root ~count:_ ->
                     if root <> None then have_root := true));
              if !have_root then Some page_size else None)

(** Remove a stale WAL file (used when re-creating a database from
    scratch so a leftover log cannot replay into the new file). *)
let remove_for ~db_path =
  let path = wal_path db_path in
  if Sys.file_exists path then Sys.remove path
