(** Disk-backed databases: bulk-load a storage into a single database
    file, reopen it in O(pages touched), and run every update as one
    WAL-protected transaction.

    File layout (see DESIGN.md §13): page zero is the {!Blas_disk.Pager}
    superblock whose root blob points at the catalog chain; every other
    page is either an SP/SD data page (a {!Blas_rel.Codec} tuple run), a
    catalog chain page, or free.  The catalog — tag inventory, dataguide
    paths with their node counts, free list, clustered page directories
    and the optimizer's statistics blob — is small and fully resident, so
    opening a database reads only the superblock and the chain;
    everything else is paged in on demand through the
    {!Blas_rel.Buffer_pool}.

    Transactions are no-steal/force-to-WAL: table edits accumulate as
    dirty pages in the pool, commit pushes them into the store's
    transaction buffer ({!Blas_rel.Buffer_pool.flush_dirty}), re-encodes
    the catalog onto the same chain pages — writing only the pages
    whose bytes changed — and hands the whole write set to
    {!Blas_disk.Store.commit} (WAL append + fsync, then in-place
    apply).  A crash at any byte boundary recovers to the last
    committed state on the next open. *)

module Store = Blas_disk.Store
module Pager = Blas_disk.Pager
module Wire = Blas_disk.Wire
module Buffer_pool = Blas_rel.Buffer_pool
module Table = Blas_rel.Table
module Codec = Blas_rel.Codec
module Value = Blas_rel.Value
module Tuple = Blas_rel.Tuple
module Tag_table = Blas_label.Tag_table
module Dataguide = Blas_xml.Dataguide
module Layout = Blas_update.Layout
module Page_store = Blas_rel.Page_store

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
   secondary-index leaf directories after each page directory.  Every
   file writes v5.  Decode accepts all five: a catalog older than v4
   has no counts, so its guide and statistics are rebuilt from the
   document model at open (see [install]), and its statistics blob is
   skipped unread; the index leaves of a catalog older than v5 are
   read only to hand their pages to the free list. *)
let cat_version_stats = 2
let cat_version_codec = 3
let cat_version_counts = 4
let cat_version_no_indexes = 5

type cat = {
  c_height : int;
  c_tags : string list;
  c_guide : Dataguide.t option;
      (** the counted dataguide (v4+); [None] for an older catalog, whose
          paths carry no counts *)
  c_free : int list;  (** recorded before chain placement; see below *)
  c_sp : Table.dir_entry array;
  c_sd : Table.dir_entry array;
  c_old_leaves : int list;
      (** the secondary-index leaf pages of a catalog older than v5;
          nothing references them any more *)
  c_stats : string option;  (** optimizer statistics blob (v4+) *)
  c_codec : Codec.format;  (** page codec for data pages (v3+) *)
}

let encode_dir buf dir =
  Wire.write_varint buf (Array.length dir);
  Array.iter
    (fun (de : Table.dir_entry) ->
      Wire.write_varint buf de.de_page;
      Wire.write_varint buf de.de_nrows;
      Codec.add_tuple buf de.de_first)
    dir

let read_dir r =
  Array.init (Wire.read_varint r) (fun _ ->
      let de_page = Wire.read_varint r in
      let de_nrows = Wire.read_varint r in
      let de_first = Codec.read_tuple r in
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
             ignore (Codec.read_value r);
             page)))

let encode_catalog ~table ~guide ~free ~sp ~sd ~stats ~codec =
  let buf = Buffer.create 4096 in
  Wire.write_u8 buf cat_version_no_indexes;
  Wire.write_varint buf (Tag_table.height table);
  let tags = Tag_table.tags table in
  Wire.write_varint buf (List.length tags);
  List.iter (Wire.write_string buf) tags;
  let paths = Dataguide.path_counts guide in
  Wire.write_varint buf (List.length paths);
  List.iter
    (fun (path, n) ->
      Wire.write_varint buf (List.length path);
      List.iter (Wire.write_string buf) path;
      Wire.write_varint buf n)
    paths;
  Wire.write_varint buf (List.length free);
  List.iter (Wire.write_varint buf) free;
  encode_dir buf sp;
  encode_dir buf sd;
  Wire.write_string buf (Option.value ~default:"" stats);
  Wire.write_u8 buf (Codec.format_id codec);
  Buffer.contents buf

let decode_catalog body =
  let r = Wire.reader body in
  let v = Wire.read_u8 r in
  if v < 1 || v > cat_version_no_indexes then
    corrupt "unsupported catalog version %d" v;
  let c_height = Wire.read_varint r in
  let c_tags = List.init (Wire.read_varint r) (fun _ -> Wire.read_string r) in
  let counted = v >= cat_version_counts in
  let paths =
    List.init (Wire.read_varint r) (fun _ ->
        let path = List.init (Wire.read_varint r) (fun _ -> Wire.read_string r) in
        (path, if counted then Wire.read_varint r else 0))
  in
  let c_guide = if counted then Some (Dataguide.of_path_counts paths) else None in
  let c_free = List.init (Wire.read_varint r) (fun _ -> Wire.read_varint r) in
  let old_leaves () =
    if v < cat_version_no_indexes then read_old_leaves r else []
  in
  let c_sp = read_dir r in
  let sp_leaves = old_leaves () in
  let c_sd = read_dir r in
  let c_old_leaves = sp_leaves @ old_leaves () in
  let c_stats =
    if v < cat_version_stats then None
    else
      match Wire.read_string r with
      | "" -> None
      | _ when not counted -> None
      | s -> Some s
  in
  let c_codec =
    if v < cat_version_codec then Codec.V1
    else
      match Codec.format_of_id (Wire.read_u8 r) with
      | f -> f
      | exception Failure msg -> raise (Corrupt msg)
  in
  {
    c_height;
    c_tags;
    c_guide;
    c_free;
    c_sp;
    c_sd;
    c_old_leaves;
    c_stats;
    c_codec;
  }

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

(* Pages needed for [body]: at least one, even for an empty body. *)
let chain_length ~chunk_cap body =
  max 1 ((String.length body + chunk_cap - 1) / chunk_cap)

(* The payloads that lay [body] over [pages], one chunk per page. *)
let chain_payloads ~chunk_cap pages body =
  let len = String.length body and n = Array.length pages in
  Array.init n (fun i ->
      let off = min len (i * chunk_cap) in
      let chunk = String.sub body off (min chunk_cap (len - off)) in
      let buf = Buffer.create (String.length chunk + 5) in
      Wire.write_varint buf (if i + 1 < n then pages.(i + 1) else 0);
      Buffer.add_string buf chunk;
      Buffer.contents buf)

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

let encode_root ~body ~first =
  let buf = Buffer.create 10 in
  Wire.write_varint buf (String.length body);
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

type db = {
  store : Store.t;
  pool : Buffer_pool.t;
  mutable codec : Codec.format;  (** page codec, from the catalog *)
  mutable free : int list;  (** allocatable page ids *)
  mutable chain : int array;  (** committed catalog chain pages *)
  mutable committed : string array;
      (** the committed payload of each chain page, which a commit diffs
          against; read-write handles only ([[||]] on read-only ones) *)
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

(* Installs the components described by the (committed) catalog into
   [db] and its storage: the abort/reload path and the tail of open. *)
let install db (storage : Storage.t) (cat, chain) =
  db.chain <- chain.pages;
  db.committed <- (if Store.mode db.store = Rw then chain.payloads else [||]);
  db.codec <- cat.c_codec;
  Storage.set_codec storage cat.c_codec;
  db.free <-
    List.filter
      (fun p -> not (Array.mem p chain.pages))
      (cat.c_free @ cat.c_old_leaves);
  storage.Storage.table <-
    Tag_table.create ~tags:cat.c_tags ~height:cat.c_height;
  storage.Storage.sp <- Layout.of_layout (page_store db) Layout.sp ~dir:cat.c_sp;
  storage.Storage.sd <- Layout.of_layout (page_store db) Layout.sd ~dir:cat.c_sd;
  match cat.c_guide with
  | Some guide ->
    storage.Storage.guide <- guide;
    (* A blob that fails to decode costs only the optimizer its
       statistics — never the open. *)
    Storage.set_ostats storage
      (Option.bind cat.c_stats (fun s ->
           match Blas_optimizer.Stats.of_string ~guide s with
           | stats -> Some stats
           | exception Invalid_argument _ -> None))
  | None ->
    (* A catalog older than v4 keeps no counts: build the document model
       once (an SD scan), which counts every path, and collect fresh
       statistics from it.  The next commit writes both down. *)
    let doc = Storage.doc storage in
    Storage.set_doc storage doc;
    Storage.set_ostats storage (Some (Storage.collect_ostats doc))

(* ------------------------------------------------------------------ *)
(* Catalog writer (inside a transaction)                              *)

let catalog_body db (storage : Storage.t) ~free =
  encode_catalog ~table:storage.Storage.table ~guide:storage.Storage.guide
    ~free ~sp:(Table.directory storage.Storage.sp)
    ~sd:(Table.directory storage.Storage.sd)
    ~codec:db.codec
    ~stats:(Option.map Blas_optimizer.Stats.to_string (Storage.ostats storage))

(* Writes the catalog into the open transaction and returns the new
   chain with the free list that goes with it; the caller adopts both
   once [Store.commit] has taken the transaction, so a transaction that
   fails never becomes the baseline.  The recorded free list is taken
   BEFORE chain placement (open subtracts the walked chain), avoiding a
   free-list/chain fixpoint.  Chunk i stays on the committed chain's
   page i: a longer chain takes its extra pages from the free list, a
   shorter one leaves its tail pages there, and only the pages whose
   bytes differ from the committed ones are logged. *)
let write_catalog db storage =
  let recorded = List.sort_uniq compare (Array.to_list db.chain @ db.free) in
  let body = catalog_body db storage ~free:recorded in
  let chunk_cap = chain_chunk_capacity db.store in
  let spare = ref (List.sort_uniq compare db.free) in
  let pages =
    Array.init (chain_length ~chunk_cap body) (fun i ->
        if i < Array.length db.chain then db.chain.(i)
        else
          match !spare with
          | p :: rest ->
            spare := rest;
            p
          | [] -> Store.alloc_page db.store)
  in
  let payloads = chain_payloads ~chunk_cap pages body in
  Array.iteri
    (fun i page ->
      if i >= Array.length db.committed || payloads.(i) <> db.committed.(i)
      then Store.write_page db.store page payloads.(i))
    pages;
  Store.set_root db.store (encode_root ~body ~first:pages.(0));
  ( { pages; payloads },
    List.filter (fun p -> not (Array.mem p pages)) recorded )

(* Re-reads the committed catalog and checks it against the resident
   components: the body byte for byte against a fresh encoding (free
   list as recorded), and the chain and free list against the handle's.
   Returns the chain's page ids. *)
let check_catalog db storage =
  let body, chain = read_chain db.store in
  let cat = decode_catalog body in
  if catalog_body db storage ~free:cat.c_free <> body then
    corrupt "catalog on file differs from the resident components";
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
    Storage.drop_doc storage;
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
        let chain, free = write_catalog db storage in
        Buffer_pool.flush_dirty db.pool;
        Store.commit db.store;
        db.chain <- chain.pages;
        db.committed <- chain.payloads;
        db.free <- free;
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
          let load spec (table : Table.t) =
            let rows =
              Array.to_list (Blas_rel.Relation.tuples (Table.relation table))
            in
            Table.directory (Layout.load ~fill pages spec rows)
          in
          let sp = load Layout.sp storage.Storage.sp in
          let sd = load Layout.sd storage.Storage.sd in
          let body =
            encode_catalog ~table:storage.Storage.table
              ~guide:(Storage.guide storage) ~free:[] ~sp ~sd ~codec
              ~stats:
                (Option.map Blas_optimizer.Stats.to_string
                   (Storage.ostats storage))
          in
          let chunk_cap = chain_chunk_capacity store in
          let chain =
            Array.init (chain_length ~chunk_cap body) (fun _ -> alloc ())
          in
          Array.iter2 (Store.write_page store) chain
            (chain_payloads ~chunk_cap chain body);
          Store.set_root store (encode_root ~body ~first:chain.(0))))

(* ------------------------------------------------------------------ *)
(* Rebuilding the labeled document model from stored rows.  Rows come
   in document order; the (start, end) intervals nest, so a stack of
   open nodes recovers parenthood, source paths and children. *)

type builder = {
  btag : string;
  bdata : string option;
  bstart : int;
  bfin : int;
  blevel : int;
  bpath : string list;  (* reversed source path *)
  mutable bkids : Blas_xpath.Doc.node list;  (* reversed *)
}

let freeze b : Blas_xpath.Doc.node =
  {
    tag = b.btag;
    data = b.bdata;
    start = b.bstart;
    fin = b.bfin;
    level = b.blevel;
    source_path = List.rev b.bpath;
    children = List.rev b.bkids;
  }

(** [rebuild_doc rows] — the document model behind a disk-backed
    storage, from its SD rows in start order.
    @raise Corrupt on rows that do not nest into one document. *)
let rebuild_doc rows : Blas_xpath.Doc.t =
  let attach stack node =
    match stack with
    | parent :: _ -> parent.bkids <- node :: parent.bkids
    | [] -> corrupt "multiple roots"
  in
  let rec close stack start =
    match stack with
    | top :: rest when top.bfin < start ->
      attach rest (freeze top);
      close rest start
    | _ -> stack
  in
  let final =
    List.fold_left
      (fun stack (tag, start, fin, level, data) ->
        let stack = close stack start in
        let parent_path = match stack with top :: _ -> top.bpath | [] -> [] in
        let expected_level = List.length parent_path + 1 in
        if level <> expected_level then
          corrupt "level %d does not match nesting depth %d" level
            expected_level;
        {
          btag = tag;
          bdata = data;
          bstart = start;
          bfin = fin;
          blevel = level;
          bpath = tag :: parent_path;
          bkids = [];
        }
        :: stack)
      [] rows
  in
  let rec collapse = function
    | [ root ] -> freeze root
    | top :: rest ->
      attach rest (freeze top);
      collapse rest
    | [] -> corrupt "empty document"
  in
  Blas_xpath.Doc.of_root (collapse final)

(* ------------------------------------------------------------------ *)
(* Open                                                               *)

let data_of_value = function
  | Value.Null -> None
  | Value.Str s -> Some s
  | v ->
    corrupt "unexpected data value %s" (Format.asprintf "%a" Value.pp v)

let row_of_sd_tuple t =
  match
    ( Tuple.get t 0, Tuple.get t 1, Tuple.get t 2, Tuple.get t 3, Tuple.get t 4 )
  with
  | Value.Str tag, Value.Int s, Value.Int e, Value.Int l, d ->
    (tag, s, e, l, data_of_value d)
  | _ -> raise (Corrupt "malformed SD row")

(** [open_ ?cache_pages ?stripes ~mode ~path ()] opens a database file:
    read-write opens replay any committed WAL tail first (crash
    recovery); read-only opens never write and overlay the WAL in
    memory.  Only the catalog becomes resident — the document model is
    materialized lazily (a full SD scan) if something forces it.
    [cache_pages] bounds the buffer pool (default 256 pages). *)
let open_ ?(cache_pages = default_cache_pages) ?(stripes = 1) ~mode ~path () =
  let store = Store.open_path ~path ~mode () in
  match read_catalog store with
  | exception e ->
    Store.close store;
    raise e
  | cat_chain ->
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
        storage = None;
        tx_lock = Mutex.create ();
      }
    in
    let storage_cell = ref None in
    let build_doc () =
      let storage =
        match !storage_cell with Some s -> s | None -> assert false
      in
      let rows =
        List.map row_of_sd_tuple
          (Table.scan storage.Storage.sd (Blas_rel.Counters.create ()))
      in
      let rows =
        List.sort (fun (_, s1, _, _, _) (_, s2, _, _, _) -> compare s1 s2) rows
      in
      rebuild_doc rows
    in
    (* Placeholder components; [install] swaps in the real ones. *)
    let storage =
      Storage.assemble ~build_doc
        ~guide:Dataguide.empty
        ~table:(Tag_table.create ~tags:[ "?" ] ~height:1)
        ~sp:(Layout.of_layout (page_store db) Layout.sp ~dir:[||])
        ~sd:(Layout.of_layout (page_store db) Layout.sd ~dir:[||])
        ~pool ()
    in
    storage_cell := Some storage;
    db.storage <- Some storage;
    install db storage cat_chain;
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
