(** Where a table's pages live: the buffer pool every page access goes
    through, the backing store under it (a database file or the
    in-memory page store), the page allocator, the payload capacity and
    the page codec.  SP and SD share one store. *)

type t = {
  pool : Buffer_pool.t;
  codec : Codec.format;
  capacity : int;  (** page payload capacity in bytes *)
  alloc : unit -> int;
  free : int -> unit;
}

let default_page_size = 4096

(** [memory ?page_size ?pool_capacity ?codec ()] — a page store held in
    a hash table of decoded rows, behind a [pool_capacity]-page pool
    (default 1024).  Pages are cut exactly as a database file with the
    same [page_size] (default 4096) and [codec] would cut them, so page
    counts and cold page reads match the file's; only the bytes are
    never encoded for storage. *)
let memory ?(page_size = default_page_size) ?(pool_capacity = 1024)
    ?(codec = Codec.default_format) () =
  let pages : (int, Buffer_pool.payload) Hashtbl.t = Hashtbl.create 256 in
  let lock = Mutex.create () in
  let with_lock f = Mutex.protect lock f in
  let next = ref 0 in
  let backing =
    {
      Buffer_pool.back_read =
        (fun ~table:_ ~page -> with_lock (fun () -> Hashtbl.find pages page));
      back_write =
        (fun ~table:_ ~page data ->
          with_lock (fun () -> Hashtbl.replace pages page data));
      back_rows = true;
    }
  in
  {
    pool = Buffer_pool.create ~capacity:pool_capacity backing;
    codec;
    capacity = page_size - Blas_disk.Pager.header_bytes;
    alloc =
      (fun () ->
        with_lock (fun () ->
            incr next;
            !next));
    free = (fun page -> with_lock (fun () -> Hashtbl.remove pages page));
  }

(** [read t counters ~table ~page] requests one page through the pool,
    charging the request (and, on a miss, the read) to [counters]. *)
let read t counters ~table ~page =
  counters.Counters.page_requests <- counters.Counters.page_requests + 1;
  let payload, result = Buffer_pool.get t.pool ~table ~page in
  if result = `Miss then
    counters.Counters.page_reads <- counters.Counters.page_reads + 1;
  payload

(** The payload to hand the store for a page of [rows]: the rows
    themselves, or [encode rows] for a store of bytes. *)
let payload t rows ~encode =
  if Buffer_pool.holds_rows t.pool then Buffer_pool.Rows rows
  else Buffer_pool.Bytes (encode rows)

(** [write t counters ~table ~page rows ~encode] installs a rewritten
    page as dirty in the pool, charging one page write. *)
let write t counters ~table ~page rows ~encode =
  counters.Counters.page_writes <- counters.Counters.page_writes + 1;
  counters.Counters.page_requests <- counters.Counters.page_requests + 1;
  Buffer_pool.store t.pool ~table ~page (payload t rows ~encode)

(** [fresh t ~table rows ~encode] writes [rows] to a newly allocated
    page straight to the backing store (the bulk loader's path, counted
    as a page written); the page id. *)
let fresh t ~table rows ~encode =
  let page = t.alloc () in
  Buffer_pool.store_through t.pool ~table ~page (payload t rows ~encode);
  page

(** [drop t ~table ~page] frees a page, dropping any cached copy. *)
let drop t ~table ~page =
  Buffer_pool.invalidate t.pool ~table ~page;
  t.free page
