(** Disk-backed databases: bulk-load a storage into a single database
    file, reopen it in O(pages touched), and run every update as one
    WAL-protected transaction.

    File layout (see DESIGN.md §13): page zero is the {!Blas_disk.Pager}
    superblock whose root blob points at the catalog chain; every other
    page is either an SP/SD data page (a {!Blas_rel.Codec} tuple run), a
    catalog chain page, or free.  The catalog — dataguide paths with
    their P-labels and node counts, clustered page directories, free
    list and the optimizer's statistics — is small and fully resident,
    so opening a database reads only the superblock and the chain;
    everything else is paged in on demand through the
    {!Blas_rel.Buffer_pool}.

    Transactions are no-steal/force-to-WAL: table edits accumulate as
    dirty pages in the pool, commit pushes them into the store's
    transaction buffer ({!Blas_rel.Buffer_pool.flush_dirty}), writes the
    catalog onto the same chain pages and hands the whole write set to
    {!Blas_disk.Store.commit} (WAL append + fsync, then in-place
    apply).  The catalog body orders its parts from least to most often
    changed, and the handle remembers the value and byte range of each
    part it last committed: a commit encodes only the parts whose value
    changed, copies the rest from the committed chain, and leaves the
    chain pages before the first changed part alone, so its catalog
    work follows the edit, not the catalog's size.  A crash at any byte
    boundary recovers to the last committed state on the next open. *)

module Store = Blas_disk.Store
module Pager = Blas_disk.Pager
module Wire = Blas_disk.Wire
module Buffer_pool = Blas_rel.Buffer_pool
module Table = Blas_rel.Table
module Codec = Blas_rel.Codec
module Value = Blas_rel.Value
module Tuple = Blas_rel.Tuple
module Dataguide = Blas_xml.Dataguide
module Layout = Blas_update.Layout
module Columns = Blas_update.Columns
module Page_store = Blas_rel.Page_store
module Stats = Blas_optimizer.Stats

type mode = Store.mode = Ro | Rw

exception Corrupt = Pager.Corrupt

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let default_cache_pages = 256

(** [looks_like_db path] sniffs the superblock magic without taking
    locks — the {!Loader} uses it to route between database files and
    XML / index-file inputs. *)
let looks_like_db = Pager.looks_like_db

(* ------------------------------------------------------------------ *)
(* Catalog codec                                                      *)

(* v1 had no statistics blob; v2 appends one; v3 appends the page-codec
   id after it; v4 stores each dataguide path's node count beside the
   path, always writes the codec id, and carries the slimmer statistics
   blob (reservoirs only — the counts are the guide's); v5 drops the
   secondary-index leaf directories after each page directory; v6
   drops the tag inventory and stores each path's P-label beside its
   count, the native-int labels SP carries; v7 holds v6's components
   as parts ordered from least to most often changed (see [parts]).
   Every file writes v7.  Decode accepts all seven: a catalog older
   than v4 has no counts, so its guide and statistics are rebuilt from
   the label columns at open (see [install]), and its statistics blob
   is skipped unread; the index leaves of a catalog older than v5 are
   read only to hand their pages to the free list.  SP pages older
   than v6 hold the paper's decimal P-labels: a read-write open
   relabels them in one transaction ([relabel]), a read-only one
   refuses. *)
let cat_version_stats = 2
let cat_version_codec = 3
let cat_version_counts = 4
let cat_version_no_indexes = 5
let cat_version_labels = 6
let cat_version_parts = 7

(* The number of parts in a v7 body; see [encode_part]. *)
let part_count = 10

type cat = {
  c_version : int;
  c_guide : Dataguide.t option;
      (** the counted dataguide (v4+), with the stored labels (v6+) or
          fresh ones; [None] for an older catalog, whose paths carry no
          counts *)
  c_free : int list;  (** recorded before chain placement; see below *)
  c_sp : Table.dir_entry array;
  c_sd : Table.dir_entry array;
  c_old_leaves : int list;
      (** the secondary-index leaf pages of a catalog older than v5;
          nothing references them any more *)
  c_stats : Stats.t option;
      (** the optimizer statistics (v4+); [None] also when the blob does
          not decode, which costs the optimizer its statistics, never
          the open *)
  c_codec : Codec.format;  (** page codec for data pages (v3+) *)
  c_ends : int array;
      (** where each part of a v7 body ends; [[||]] for an older one,
          and for one whose statistics do not decode: its resident
          components then differ from its bytes *)
}

(* Past one value of a catalog older than v6, which may be a decimal
   P-label (value tag 3, no longer decoded). *)
let skip_old_value r =
  match Wire.read_u8 r with
  | 0 -> ()
  | 1 | 2 -> ignore (Wire.read_varint r)
  | _ -> ignore (Wire.read_string r)

(* [old] skips each entry's first tuple: before v6 an SP tuple leads
   with a decimal P-label, and those pages are relabeled before
   anything reads them. *)
let read_dir ?(old = false) r =
  Array.init (Wire.read_varint r) (fun _ ->
      let de_page = Wire.read_varint r in
      let de_nrows = Wire.read_varint r in
      let de_first =
        if old then begin
          for _ = 1 to Wire.read_varint r do
            skip_old_value r
          done;
          Tuple.of_list []
        end
        else Codec.read_tuple r
      in
      { Table.de_page; de_nrows; de_first })

(* The leaf pages of the index directories a catalog older than v5
   keeps after each page directory: per index a column name and its
   leaves, each (page, entries, rows, first value). *)
let read_old_leaves r =
  List.concat
    (List.init (Wire.read_varint r) (fun _ ->
         ignore (Wire.read_string r);
         List.init (Wire.read_varint r) (fun _ ->
             let page = Wire.read_varint r in
             ignore (Wire.read_varint r);
             ignore (Wire.read_varint r);
             skip_old_value r;
             page)))

(* The resident components a v7 body encodes. *)
type parts = {
  p_codec : Codec.format;
  p_stats : Stats.t option;
  p_guide : Dataguide.t;
  p_sp : Table.dir_entry array;
  p_sd : Table.dir_entry array;
  p_free : int list;
}

(* Part [k] of a v7 body, in order from least to most often changed:
   paths and labels move only with a new path or a respread, a
   directory's pages and first tuples with a split, a freed page or a
   new first row, counts and rows per page with every insert and
   delete, the statistics header (its edit count) with every commit.
   - 0: version and page codec;
   - 1: the statistics reservoirs ("" without statistics), fixed until
     a resample;
   - 2: the paths in reversed-path order, each leaf tag first with its
     P-label;
   - 3, 4: the SP and SD page directories without their row counts:
     the entries, then each entry's page and first tuple;
   - 5: the free list;
   - 6: each path's count, in part 2's order;
   - 7, 8: each SP and SD directory entry's row count;
   - 9: the statistics header, up to the end of the body (nothing
     without statistics).
   An insert or delete thus changes bytes in parts 6-9 only, unless it
   splits or frees a page: the tail of the body, not one spot in each
   directory. *)
let encode_part buf p = function
  | 0 ->
    Wire.write_u8 buf cat_version_parts;
    Wire.write_u8 buf (Codec.format_id p.p_codec)
  | 1 -> Wire.write_string buf (match p.p_stats with Some s -> Stats.reservoirs s | None -> "")
  | 2 ->
    Wire.write_varint buf (Dataguide.path_count p.p_guide);
    Dataguide.iter_order
      (fun rpath _ label ->
        Wire.write_varint buf (List.length rpath);
        List.iter (Wire.write_string buf) rpath;
        Wire.write_varint buf label)
      p.p_guide
  | (3 | 4) as k ->
    let dir = if k = 3 then p.p_sp else p.p_sd in
    Wire.write_varint buf (Array.length dir);
    Array.iter
      (fun (de : Table.dir_entry) ->
        Wire.write_varint buf de.de_page;
        Codec.add_tuple buf de.de_first)
      dir
  | 5 ->
    Wire.write_varint buf (List.length p.p_free);
    List.iter (Wire.write_varint buf) p.p_free
  | 6 -> Dataguide.iter_order (fun _ count _ -> Wire.write_varint buf count) p.p_guide
  | (7 | 8) as k ->
    Array.iter
      (fun (de : Table.dir_entry) -> Wire.write_varint buf de.de_nrows)
      (if k = 7 then p.p_sp else p.p_sd)
  | _ -> Option.iter (Stats.add_header buf) p.p_stats

(* Whether two directories agree entry by entry on [same]: far cheaper
   than encoding either.  An edit builds a new directory array, but
   the entries of the pages it did not touch are the old records. *)
let same_entries same a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 same a b)

let same_layout (a : Table.dir_entry) (b : Table.dir_entry) =
  a.de_page = b.de_page && (a.de_first == b.de_first || Tuple.equal a.de_first b.de_first)

let same_nrows (a : Table.dir_entry) (b : Table.dir_entry) = a.de_nrows = b.de_nrows

(* Whether part [k] of [was] and [now] encodes to the same bytes,
   without encoding it: a physically unchanged value (the guide's
   arrays, the reservoirs' string), directories that agree entry by
   entry on the part's fields, or an equal free list or codec.  The
   header always counts as changed unless there are no statistics. *)
let same_part was now = function
  | 0 -> was.p_codec = now.p_codec
  | 1 -> (
    match (was.p_stats, now.p_stats) with
    | None, None -> true
    | Some a, Some b -> Stats.reservoirs a == Stats.reservoirs b
    | _ -> false)
  | 2 -> Dataguide.same_paths was.p_guide now.p_guide
  | 3 -> same_entries same_layout was.p_sp now.p_sp
  | 4 -> same_entries same_layout was.p_sd now.p_sd
  | 5 -> was.p_free = now.p_free
  | 6 -> was.p_guide == now.p_guide
  | 7 -> same_entries same_nrows was.p_sp now.p_sp
  | 8 -> same_entries same_nrows was.p_sd now.p_sd
  | _ -> Option.is_none was.p_stats && Option.is_none now.p_stats

(* The whole v7 body from scratch, and where each part ends. *)
let encode_catalog p =
  let buf = Buffer.create 4096 in
  let ends =
    Array.init part_count (fun k ->
        encode_part buf p k;
        Buffer.length buf)
  in
  (Buffer.contents buf, ends)

(* A v7 body past its version byte. *)
let decode_parts r =
  let ends = Array.make part_count 0 in
  let mark k = ends.(k) <- r.Wire.pos in
  let c_codec =
    match Codec.format_of_id (Wire.read_u8 r) with
    | f -> f
    | exception Failure msg -> raise (Corrupt msg)
  in
  mark 0;
  let reservoirs = Wire.read_string r in
  mark 1;
  let paths =
    List.init (Wire.read_varint r) (fun _ ->
        let rpath = List.init (Wire.read_varint r) (fun _ -> Wire.read_string r) in
        let label = Wire.read_varint r in
        (List.rev rpath, label))
  in
  mark 2;
  let layout () =
    Array.init (Wire.read_varint r) (fun _ ->
        let page = Wire.read_varint r in
        (page, Codec.read_tuple r))
  in
  let sp = layout () in
  mark 3;
  let sd = layout () in
  mark 4;
  let c_free = List.init (Wire.read_varint r) (fun _ -> Wire.read_varint r) in
  mark 5;
  let entries =
    List.map
      (fun (path, label) ->
        let count = Wire.read_varint r in
        (path, count, label))
      paths
  in
  mark 6;
  let c_guide =
    match Dataguide.of_entries entries with
    | g -> Some g
    | exception Invalid_argument msg -> raise (Corrupt msg)
  in
  let dir layout =
    Array.map
      (fun (de_page, de_first) -> { Table.de_page; de_nrows = Wire.read_varint r; de_first })
      layout
  in
  let c_sp = dir sp in
  mark 7;
  let c_sd = dir sd in
  mark 8;
  let header = Wire.read_bytes r (Wire.remaining r) in
  mark 9;
  let c_stats, c_ends =
    if reservoirs = "" then (None, ends)
    else
      match Stats.of_parts ~header ~reservoirs with
      | stats -> (Some stats, ends)
      | exception Invalid_argument _ -> (None, [||])
  in
  {
    c_version = cat_version_parts;
    c_guide;
    c_free;
    c_sp;
    c_sd;
    c_old_leaves = [];
    c_stats;
    c_codec;
    c_ends;
  }

(* A body older than v7, past its version byte [v]. *)
let decode_older v r =
  let labeled = v >= cat_version_labels in
  if not labeled then begin
    (* the paper's tag inventory: height, then the tags *)
    ignore (Wire.read_varint r);
    for _ = 1 to Wire.read_varint r do
      ignore (Wire.read_string r)
    done
  end;
  let counted = v >= cat_version_counts in
  let paths =
    List.init (Wire.read_varint r) (fun _ ->
        let path = List.init (Wire.read_varint r) (fun _ -> Wire.read_string r) in
        let n = if counted then Wire.read_varint r else 0 in
        (path, n, if labeled then Wire.read_varint r else 0))
  in
  let c_guide =
    if labeled then
      match Dataguide.of_entries paths with
      | g -> Some g
      | exception Invalid_argument msg -> raise (Corrupt msg)
    else if counted then
      Some (Dataguide.of_path_counts (List.map (fun (p, n, _) -> (p, n)) paths))
    else None
  in
  let c_free = List.init (Wire.read_varint r) (fun _ -> Wire.read_varint r) in
  let old_leaves () =
    if v < cat_version_no_indexes then read_old_leaves r else []
  in
  let c_sp = read_dir ~old:(not labeled) r in
  let sp_leaves = old_leaves () in
  let c_sd = read_dir r in
  let c_old_leaves = sp_leaves @ old_leaves () in
  let c_stats =
    if v < cat_version_stats then None
    else
      match Wire.read_string r with
      | "" -> None
      | _ when not counted -> None
      | s -> (
        match Stats.of_string s with
        | stats -> Some stats
        | exception Invalid_argument _ -> None)
  in
  let c_codec =
    if v < cat_version_codec then Codec.V1
    else
      match Codec.format_of_id (Wire.read_u8 r) with
      | f -> f
      | exception Failure msg -> raise (Corrupt msg)
  in
  {
    c_version = v;
    c_guide;
    c_free;
    c_sp;
    c_sd;
    c_old_leaves;
    c_stats;
    c_codec;
    c_ends = [||];
  }

let decode_catalog body =
  let r = Wire.reader body in
  let v = Wire.read_u8 r in
  if v < 1 || v > cat_version_parts then
    corrupt "unsupported catalog version %d" v;
  if v = cat_version_parts then decode_parts r else decode_older v r

(* ------------------------------------------------------------------ *)
(* Catalog chain: the body split over linked pages.  Each chain page
   is [varint next-page (0 = end)][chunk]; the root blob is
   [varint body-length][varint first-page]. *)

let chain_chunk_capacity store =
  (* a varint page id never exceeds 5 bytes *)
  Store.capacity store - 5

(* A chain as the file holds it: page ids in order and each page's
   payload (next pointer plus chunk). *)
type chain = { pages : int array; payloads : string array }

(* Pages needed for a body of [len] bytes: at least one, even for an
   empty body. *)
let chain_length ~chunk_cap len = max 1 ((len + chunk_cap - 1) / chunk_cap)

(* The payload of page [i] of a chain over [pages] that holds a body of
   [len] bytes: the next pointer, then chunk [i], which [add buf lo hi]
   appends as the body's bytes [lo, hi). *)
let chain_payload ~chunk_cap pages ~len ~add i =
  let lo = min len (i * chunk_cap) in
  let hi = min len (lo + chunk_cap) in
  let buf = Buffer.create (hi - lo + 5) in
  Wire.write_varint buf
    (if i + 1 < Array.length pages then pages.(i + 1) else 0);
  add buf lo hi;
  Buffer.contents buf

(* Where the chunk starts in a chain page's payload. *)
let chunk_start payload =
  let r = Wire.reader payload in
  ignore (Wire.read_varint r);
  r.Wire.pos

(* The committed catalog body and the chain it was read from. *)
let read_chain store =
  let root = Store.root store in
  if String.length root = 0 then raise (Corrupt "missing catalog root");
  let r = Wire.reader root in
  let body_len = Wire.read_varint r in
  let first = Wire.read_varint r in
  let buf = Buffer.create body_len in
  let chain = ref [] in
  let page = ref first in
  while !page <> 0 do
    let payload = Store.read_page store !page in
    chain := (!page, payload) :: !chain;
    let pr = Wire.reader payload in
    let next = Wire.read_varint pr in
    Buffer.add_string buf (Wire.read_bytes pr (Wire.remaining pr));
    page := next
  done;
  if Buffer.length buf <> body_len then
    corrupt "catalog chain holds %d bytes, root promises %d"
      (Buffer.length buf) body_len;
  let chain = Array.of_list (List.rev !chain) in
  (Buffer.contents buf, { pages = Array.map fst chain; payloads = Array.map snd chain })

let read_catalog store =
  let body, chain = read_chain store in
  (decode_catalog body, chain)

let encode_root ~len ~first =
  let buf = Buffer.create 10 in
  Wire.write_varint buf len;
  Wire.write_varint buf first;
  Buffer.contents buf

(* The file under a buffer pool: pages cross it encoded. *)
let file_backing store =
  {
    Buffer_pool.back_read =
      (fun ~table:_ ~page -> Buffer_pool.Bytes (Store.read_page store page));
    back_write =
      (fun ~table:_ ~page -> function
        | Buffer_pool.Bytes data -> Store.write_page store page data
        | Buffer_pool.Rows _ -> invalid_arg "Database: file pages are written encoded");
    back_rows = false;
  }

(* ------------------------------------------------------------------ *)
(* The open database handle                                           *)

(* What the committed v7 body encodes: the resident values it was
   encoded from, and where each part ends in it. *)
type memo = { m_parts : parts; m_ends : int array }

type db = {
  store : Store.t;
  pool : Buffer_pool.t;
  mutable codec : Codec.format;  (** page codec, from the catalog *)
  mutable free : int list;  (** allocatable page ids *)
  mutable chain : int array;  (** committed catalog chain pages *)
  mutable committed : string array;
      (** the committed payload of each chain page, which a commit diffs
          against and copies unchanged parts from; read-write handles
          only ([[||]] on read-only ones) *)
  mutable memo : memo option;
      (** the parts of the committed body; [None] when a commit must
          encode every part (a read-only handle, or a committed catalog
          older than v7) *)
  mutable chain_writes : int;  (** chain pages committed since open *)
  mutable storage : Storage.t option;  (** back-reference, set at open *)
  tx_lock : Mutex.t;
}

let db_alloc db () =
  match db.free with
  | page :: rest ->
    db.free <- rest;
    page
  | [] -> Store.alloc_page db.store

let db_free db page = db.free <- page :: db.free

(* The page store the tables live in. *)
let page_store db =
  {
    Page_store.pool = db.pool;
    codec = db.codec;
    capacity = Store.capacity db.store;
    alloc = db_alloc db;
    free = db_free db;
  }

(* The resident components a commit encodes. *)
let resident_parts db (storage : Storage.t) ~free =
  {
    p_codec = db.codec;
    p_stats = Storage.ostats storage;
    p_guide = storage.Storage.guide;
    p_sp = Table.directory storage.Storage.sp;
    p_sd = Table.directory storage.Storage.sd;
    p_free = free;
  }

(* The memo of a freshly installed catalog: the resident values are
   what it decoded to.  Only a v7 body laid out as [write_catalog] lays
   it (every chunk but the last full) can lend a commit its bytes, and
   only if its statistics decoded (else it has no [c_ends]): a commit
   would otherwise keep bytes that no longer match the resident
   components. *)
let committed_memo db storage cat =
  let chunk_cap = chain_chunk_capacity db.store in
  let n = Array.length db.committed in
  let rec regular i =
    i >= n - 1
    || String.length db.committed.(i) - chunk_start db.committed.(i) = chunk_cap
       && regular (i + 1)
  in
  if cat.c_ends <> [||] && n > 0 && regular 0 then
    Some { m_parts = resident_parts db storage ~free:cat.c_free; m_ends = cat.c_ends }
  else None

(* Installs the components described by the (committed) catalog into
   [db] and its storage: the abort/reload path and the tail of open.
   Every component is replaced, so the plan memo goes last: its
   compiled plans hold the old tables. *)
let install db (storage : Storage.t) (cat, chain) =
  db.chain <- chain.pages;
  db.committed <- (if Store.mode db.store = Rw then chain.payloads else [||]);
  db.codec <- cat.c_codec;
  storage.Storage.codec <- cat.c_codec;
  db.free <-
    List.filter
      (fun p -> not (Array.mem p chain.pages))
      (cat.c_free @ cat.c_old_leaves);
  storage.Storage.sp <- Layout.of_layout (page_store db) Layout.sp ~dir:cat.c_sp;
  storage.Storage.sd <- Layout.of_layout (page_store db) Layout.sd ~dir:cat.c_sd;
  (* What was derived from the old tables goes with them. *)
  Storage.drop_columns storage;
  (match cat.c_guide with
  | Some guide ->
    storage.Storage.guide <- guide;
    storage.Storage.ostats <- cat.c_stats
  | None ->
    (* A catalog older than v4 keeps no counts: build the label columns
       (an SD scan), take the counted guide the build comes with and
       collect fresh statistics from the columns.  The next commit
       writes both down. *)
    let cols, guide = Storage.scan_columns storage in
    storage.Storage.guide <- guide;
    storage.Storage.ostats <- Some (Stats.collect (Columns.iter_values cols)));
  db.memo <- committed_memo db storage cat;
  Qcache.flush_plans storage.Storage.cache

(* ------------------------------------------------------------------ *)
(* Catalog writer (inside a transaction)                              *)

(* Appends the committed body's bytes [off, off + len) from the chain
   pages that hold them. *)
let add_committed db buf off len =
  let chunk_cap = chain_chunk_capacity db.store in
  let off = ref off and left = ref len in
  while !left > 0 do
    let p = db.committed.(!off / chunk_cap) and at = !off mod chunk_cap in
    let k = min !left (chunk_cap - at) in
    Buffer.add_substring buf p (chunk_start p + at) k;
    off := !off + k;
    left := !left - k
  done

(* Writes the catalog into the open transaction.  Returns the new
   chain, the free list that goes with it, the new memo and the chain
   pages written; the caller adopts them once [Store.commit] has taken
   the transaction, so a transaction that fails never becomes the
   baseline.

   The recorded free list is taken BEFORE chain placement (open
   subtracts the walked chain), avoiding a free-list/chain fixpoint.
   With a memo, the parts up to the first one whose value changed are
   the committed body's; from there each part is encoded if its value
   changed and copied from the committed chain if not.  Chunk i stays
   on the committed chain's page i: a longer chain takes its extra
   pages from the free list, a shorter one leaves its tail pages there.
   A page wholly before the first changed part (and not the last of
   either chain, whose next pointer may move) keeps its committed
   payload untouched; of the others only those whose bytes differ from
   the committed ones are logged. *)
let write_catalog db storage =
  let recorded = List.sort_uniq compare (Array.to_list db.chain @ db.free) in
  let parts = resident_parts db storage ~free:recorded in
  let first, start =
    match db.memo with
    | None -> (0, fun _ -> 0)
    | Some m ->
      let k = ref 0 in
      while !k < part_count && same_part m.m_parts parts !k do
        incr k
      done;
      (!k, fun k -> if k = 0 then 0 else m.m_ends.(k - 1))
  in
  let off = start first in
  let ends = Array.make part_count off in
  let tail = Buffer.create 1024 in
  for k = first to part_count - 1 do
    (match db.memo with
    | Some m when k > first && same_part m.m_parts parts k ->
      add_committed db tail (start k) (m.m_ends.(k) - start k)
    | _ -> encode_part tail parts k);
    ends.(k) <- off + Buffer.length tail
  done;
  for k = 0 to first - 1 do
    ends.(k) <- start (k + 1)
  done;
  let tail = Buffer.contents tail in
  let len = off + String.length tail in
  let chunk_cap = chain_chunk_capacity db.store in
  let n = chain_length ~chunk_cap len and old_n = Array.length db.chain in
  let kept = if Option.is_none db.memo then 0 else min (off / chunk_cap) (min n old_n - 1) in
  let spare = ref (List.sort_uniq compare db.free) in
  let pages =
    Array.init n (fun i ->
        if i < old_n then db.chain.(i)
        else
          match !spare with
          | p :: rest ->
            spare := rest;
            p
          | [] -> Store.alloc_page db.store)
  in
  let add buf lo hi =
    if lo < off then add_committed db buf lo (min hi off - lo);
    let lo = max lo off in
    if hi > lo then Buffer.add_substring buf tail (lo - off) (hi - lo)
  in
  let written = ref 0 in
  let payloads =
    Array.init n (fun i ->
        if i < kept then db.committed.(i)
        else
          let payload = chain_payload ~chunk_cap pages ~len ~add i in
          if i >= Array.length db.committed || payload <> db.committed.(i) then begin
            Store.write_page db.store pages.(i) payload;
            incr written
          end;
          payload)
  in
  Store.set_root db.store (encode_root ~len ~first:pages.(0));
  ( { pages; payloads },
    List.filter (fun p -> not (Array.mem p pages)) recorded,
    { m_parts = parts; m_ends = ends },
    !written )

(* Re-reads the committed catalog and checks it against the resident
   components: the body byte for byte against an encoding of every
   part from scratch (free list as recorded), never from the memo, so
   a part the memo wrongly kept shows; the memo's part ends against the
   body's; and the chain and free list against the handle's.  Returns
   the chain's page ids. *)
let check_catalog db storage =
  let body, chain = read_chain db.store in
  let cat = decode_catalog body in
  if fst (encode_catalog (resident_parts db storage ~free:cat.c_free)) <> body then
    corrupt "catalog on file differs from the resident components";
  (match db.memo with
  | Some m when m.m_ends <> cat.c_ends -> corrupt "catalog memo holds stale part ends"
  | _ -> ());
  if chain.pages <> db.chain then corrupt "catalog chain moved";
  if Store.mode db.store = Rw && chain.payloads <> db.committed then
    corrupt "catalog chain differs from the committed payloads";
  if List.filter (fun p -> not (Array.mem p chain.pages)) cat.c_free <> db.free
  then corrupt "catalog free list differs from the resident one";
  Array.to_list chain.pages

(* ------------------------------------------------------------------ *)
(* Transactions                                                       *)

let reload db =
  match db.storage with
  | None -> ()
  | Some storage ->
    Buffer_pool.flush db.pool;
    install db storage (read_catalog db.store);
    Qcache.invalidate (Storage.cache storage) ~full:true ~schema_changed:true
      ~plabels:[]

let with_tx db f =
  if Store.mode db.store = Ro then
    invalid_arg "Database.with_tx: database opened read-only";
  let storage =
    match db.storage with Some s -> s | None -> assert false
  in
  Mutex.lock db.tx_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock db.tx_lock)
    (fun () ->
      Store.begin_tx db.store;
      match f () with
      | result ->
        let chain, free, memo, written = write_catalog db storage in
        Buffer_pool.flush_dirty db.pool;
        Store.commit db.store;
        db.chain <- chain.pages;
        db.committed <- chain.payloads;
        db.free <- free;
        db.memo <- Some memo;
        db.chain_writes <- db.chain_writes + written;
        result
      | exception e ->
        (* Roll back: dirty pages vanish, the store forgets the
           transaction buffer, and the resident components are rebuilt
           from the committed catalog.  Clean cached payloads may have
           been read through the transaction buffer, so the whole pool
           goes.  Each step is best-effort — under fault injection the
           file descriptors themselves may refuse writes. *)
        (try Buffer_pool.drop_dirty db.pool with _ -> ());
        (try Store.abort db.store with _ -> ());
        (try reload db with _ -> ());
        raise e)

(* Relabels the SP rows of a catalog older than v6 with the guide's
   native-int P-labels, in one transaction, taking the rows from the
   label columns (built from SD, which carries no P-label).  The new
   labels follow the paper's order, so the rows keep their order and go
   back onto the pages they came from, in directory order (fewer of
   them: the labels are shorter); the pages left over are freed.  Runs
   inside open, before anything can plan against the old SP. *)
let relabel db (storage : Storage.t) =
  with_tx db (fun () ->
      let cols = Storage.columns storage in
      let old =
        ref
          (Array.to_list
             (Array.map
                (fun (de : Table.dir_entry) -> de.de_page)
                (Table.directory storage.Storage.sp)))
      in
      let alloc () =
        match !old with
        | page :: rest ->
          old := rest;
          page
        | [] -> db_alloc db ()
      in
      storage.Storage.sp <-
        Layout.load { (page_store db) with alloc } Layout.sp
          (Columns.sp_rows storage.Storage.guide cols);
      List.iter (fun page -> Page_store.drop (page_store db) ~table:"sp" ~page) !old)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)

(* Layout economics of one paged table: stored payload bytes across its
   data pages, and what the same rows would cost under the v1 row-major
   codec (the compression-ratio baseline).  Decodes every data page —
   [stats] already reads every live page, so this stays O(file). *)
let table_stats db (table : Table.t) =
  let dir = Table.directory table in
  let payload = ref 0 and v1 = ref 0 in
  Array.iter
    (fun (de : Table.dir_entry) ->
      let stored = Store.read_page db.store de.de_page in
      payload := !payload + String.length stored;
      v1 :=
        !v1
        +
        match Table.codec table with
        | Codec.V1 -> String.length stored
        | format ->
          Codec.page_bytes (Codec.decode_page ~format stored))
    dir;
  {
    Storage.ts_name = Table.name table;
    ts_entries = Table.cardinality table;
    ts_data_pages = Array.length dir;
    ts_payload_bytes = !payload;
    ts_v1_bytes = !v1;
  }

let stats db () =
  let storage =
    match db.storage with Some s -> s | None -> assert false
  in
  let data table =
    Array.to_list (Array.map (fun (de : Table.dir_entry) -> de.de_page)
      (Table.directory table))
  in
  let owned =
    data storage.Storage.sp @ data storage.Storage.sd @ Array.to_list db.chain
  in
  let live_bytes =
    List.fold_left
      (fun acc page -> acc + String.length (Store.read_page db.store page))
      0 owned
  in
  {
    Storage.dstat_path = Store.path db.store;
    dstat_file_bytes = Store.file_size db.store;
    dstat_page_size = Store.page_size db.store;
    dstat_page_count = Store.page_count db.store;
    dstat_live_pages = List.length owned;
    dstat_free_pages = List.length db.free;
    dstat_live_bytes = live_bytes;
    dstat_wal_bytes = Store.wal_size db.store;
    dstat_cache_pages = Buffer_pool.capacity db.pool;
    dstat_cache_resident = Buffer_pool.resident db.pool;
    dstat_codec = Codec.format_name db.codec;
    dstat_catalog_pages = Array.length db.chain;
    dstat_catalog_writes = db.chain_writes;
    dstat_tables =
      List.map (table_stats db) [ storage.Storage.sp; storage.Storage.sd ];
  }

(* ------------------------------------------------------------------ *)
(* Bulk load                                                          *)

(** [same_file a b] — whether [a] and [b] name one existing file (same
    device and inode, so links and relative spellings match). *)
let same_file a b =
  match (Unix.stat a, Unix.stat b) with
  | sa, sb -> sa.Unix.st_dev = sb.Unix.st_dev && sa.Unix.st_ino = sb.Unix.st_ino
  | exception Unix.Unix_error _ -> false

(** [create ?page_size ?fill ?codec ~path storage] bulk-loads [storage]
    into a fresh database file at [path] with the one bulk loader
    ({!Blas_rel.Table.load}): data pages in cluster order at [fill]
    occupancy (encoded by [codec], default
    {!Blas_rel.Codec.default_format}), catalog chain, superblock, one
    fsync at the end.  Any existing file at [path] is replaced, unless
    it is [storage]'s own database file. *)
let create ?(page_size = 4096) ?(fill = Table.default_fill)
    ?(codec = Codec.default_format) ~path (storage : Storage.t) =
  (* The source's own file lock does not stop this process from
     truncating it (POSIX locks never conflict within one process). *)
  (match Storage.disk storage with
  | Some d when same_file d.Storage.dk_path path ->
    invalid_arg
      (Printf.sprintf "%s is the source database itself; choose a new file" path)
  | _ -> ());
  let store = Store.create ~path ~page_size () in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      Store.bulk_load store (fun () ->
          let alloc () = Store.alloc_page store in
          let pages =
            {
              Page_store.pool = Buffer_pool.create ~capacity:1 (file_backing store);
              codec;
              capacity = Store.capacity store;
              alloc;
              free = ignore;
            }
          in
          (* The source rows are clustered already: the load cuts and
             writes them in one pass. *)
          let load spec table =
            Table.directory (Layout.load ~fill pages spec (Table.rows table))
          in
          let sp = load Layout.sp storage.Storage.sp in
          let sd = load Layout.sd storage.Storage.sd in
          (* The catalog records its own chain pages as free, as every
             commit does (open subtracts the chain), so the first
             commit finds the free list it writes.  A longer free list
             may need a longer chain: allocate until the body fits. *)
          let chunk_cap = chain_chunk_capacity store in
          let rec place chain =
            let body, _ =
              encode_catalog
                {
                  p_codec = codec;
                  p_stats = Storage.ostats storage;
                  p_guide = Storage.guide storage;
                  p_sp = sp;
                  p_sd = sd;
                  p_free = Array.to_list chain;
                }
            in
            let more = chain_length ~chunk_cap (String.length body) - Array.length chain in
            if more <= 0 then (chain, body)
            else place (Array.append chain (Array.init more (fun _ -> alloc ())))
          in
          let chain, body = place [||] in
          let len = String.length body in
          let add buf lo hi = Buffer.add_substring buf body lo (hi - lo) in
          Array.iteri
            (fun i page ->
              Store.write_page store page (chain_payload ~chunk_cap chain ~len ~add i))
            chain;
          Store.set_root store (encode_root ~len ~first:chain.(0))))

(** [open_ ?cache_pages ?stripes ~mode ~path ()] opens a database file:
    read-write opens replay any committed WAL tail first (crash
    recovery); read-only opens never write and overlay the WAL in
    memory.  Only the catalog becomes resident — the label columns are
    built (a full SD scan) only if an edit or a reader asks for them.
    [cache_pages] bounds the buffer pool (default 256 pages). *)
let open_ ?(cache_pages = default_cache_pages) ?(stripes = 1) ~mode ~path () =
  let store = Store.open_path ~path ~mode () in
  match read_catalog store with
  | exception e ->
    Store.close store;
    raise e
  | cat, _ when cat.c_version < cat_version_labels && mode = Ro ->
    Store.close store;
    corrupt
      "catalog version %d holds the paper's decimal P-labels; open the \
       file read-write once to relabel it in place (any edit does, e.g. \
       blas update --replace-text), or rebuild it with blas index"
      cat.c_version
  | (cat, _) as cat_chain ->
    let pool =
      Buffer_pool.create_striped ~stripes ~capacity:cache_pages (file_backing store)
    in
    let db =
      {
        store;
        pool;
        codec = Codec.V1;  (* provisional; [install] reads the catalog's *)
        free = [];
        chain = [||];
        committed = [||];
        memo = None;
        chain_writes = 0;
        storage = None;
        tx_lock = Mutex.create ();
      }
    in
    (* Placeholder components; [install] swaps in the real ones. *)
    let storage =
      Storage.assemble ~guide:Dataguide.empty
        ~sp:(Layout.of_layout (page_store db) Layout.sp ~dir:[||])
        ~sd:(Layout.of_layout (page_store db) Layout.sd ~dir:[||])
        ~pool ()
    in
    db.storage <- Some storage;
    (match
       install db storage cat_chain;
       if cat.c_version < cat_version_labels then relabel db storage
     with
    | () -> ()
    | exception e ->
      Store.close store;
      raise e);
    Storage.set_disk storage
      {
        Storage.dk_path = path;
        dk_readonly = (mode = Ro);
        dk_stats = stats db;
        dk_io = (fun () -> Store.io_totals db.store);
        dk_wal_bytes = (fun () -> Store.wal_size db.store);
        dk_set_metrics =
          (fun registry ~labels -> Store.set_metrics db.store registry ~labels);
        dk_with_tx = (fun f -> with_tx db f);
        dk_set_group_commit =
          (fun ~window_ms -> Store.set_group_commit db.store ~window_ms);
        dk_sync_commits = (fun () -> Store.sync_pending db.store);
        dk_checkpoint = (fun () -> Store.checkpoint db.store);
        dk_close = (fun () -> Store.close db.store);
        dk_crash = (fun () -> Store.crash db.store);
        dk_check_catalog = (fun () -> check_catalog db storage);
      };
    storage
