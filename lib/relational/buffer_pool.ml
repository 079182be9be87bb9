(** A buffer pool: an LRU cache of fixed-size pages, shared by the base
    tables of one storage instance.

    The paper's evaluation machine read data from a 7200 rpm disk on a
    cold cache, and its argument for BLAS repeatedly appeals to "disk
    accesses".  Every page a table touches is requested here; a request
    that misses reads the page from the backing page store and counts
    as one disk access.  {!flush} empties the pool, modelling the
    paper's cold-cache protocol.

    The pool caches whatever payload its backing store hands out: a
    database file's store hands out encoded bytes (so the pool stays as
    small as the file's pages; on every touch a table selects on the
    encoded key column and builds tuples only for the rows that pass,
    see {!Codec.select}), the in-memory page store hands out decoded
    rows.  {!store} installs
    a dirty payload; eviction is real: when a stripe is full the least
    recently used page is dropped, and if it is dirty its payload is
    first written back through the backing store.

    Domain safety: the pool is lock-striped.  Each stripe owns a
    disjoint hash partition of the page keys with its own LRU list,
    statistics and mutex, so concurrent query domains contend only when
    they touch the same stripe.  The default is a single stripe — one
    global LRU, observationally identical to the sequential pool (the
    LRU model test depends on this) — and multi-domain runs stay safe
    because every stripe operation holds that stripe's lock.  Each
    stripe's LRU list is a doubly-linked list over a hash table, so
    requests are O(1). *)

type key = string * int  (** table name, page number *)

type payload = Bytes of string | Rows of Tuple.t list

type node = {
  key : key;
  mutable data : payload;
  mutable dirty : bool;
  mutable prev : node option;
  mutable next : node option;
}

type backing = {
  back_read : table:string -> page:int -> payload;
  back_write : table:string -> page:int -> payload -> unit;
  back_rows : bool;  (** payloads are decoded rows, not encoded bytes *)
}

type stripe = {
  lock : Mutex.t;
  s_capacity : int;
  table : (key, node) Hashtbl.t;
  mutable head : node option;  (** most recently used *)
  mutable tail : node option;  (** least recently used *)
  mutable requests : int;
  mutable misses : int;
  mutable writes : int;
  mutable dirty_evictions : int;
}

type t = { stripes : stripe array; backing : backing }

let make_stripe capacity =
  {
    lock = Mutex.create ();
    s_capacity = capacity;
    table = Hashtbl.create (capacity * 2);
    head = None;
    tail = None;
    requests = 0;
    misses = 0;
    writes = 0;
    dirty_evictions = 0;
  }

(** [create_striped ~stripes ~capacity backing] — a pool of [capacity]
    pages over [backing], split over [stripes] independently locked LRU
    partitions.  With one stripe the pool is a single global LRU. *)
let create_striped ~stripes ~capacity backing =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  if stripes < 1 then invalid_arg "Buffer_pool.create: stripes must be >= 1";
  let stripes = min stripes capacity in
  let base = capacity / stripes and extra = capacity mod stripes in
  {
    stripes =
      Array.init stripes (fun i ->
          make_stripe (base + if i < extra then 1 else 0));
    backing;
  }

(** [create ~capacity backing] — a single-stripe pool: one global LRU. *)
let create ~capacity backing = create_striped ~stripes:1 ~capacity backing

(** Whether the backing store hands out decoded rows (writers then hand
    it rows too) rather than encoded bytes. *)
let holds_rows t = t.backing.back_rows

let stripe_count t = Array.length t.stripes

let stripe_of t key =
  if Array.length t.stripes = 1 then t.stripes.(0)
  else t.stripes.(Hashtbl.hash key mod Array.length t.stripes)

let locked stripe f =
  Mutex.lock stripe.lock;
  match f stripe with
  | v ->
    Mutex.unlock stripe.lock;
    v
  | exception e ->
    Mutex.unlock stripe.lock;
    raise e

let sum_over t f = Array.fold_left (fun acc s -> acc + locked s f) 0 t.stripes

let capacity t = Array.fold_left (fun acc s -> acc + s.s_capacity) 0 t.stripes

let resident t = sum_over t (fun s -> Hashtbl.length s.table)

(* Unlinks [node] from the stripe's LRU list. *)
let unlink s node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> s.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> s.tail <- node.prev);
  node.prev <- None;
  node.next <- None

(* Pushes [node] to the most-recently-used end. *)
let push_front s node =
  node.next <- s.head;
  node.prev <- None;
  (match s.head with Some h -> h.prev <- Some node | None -> s.tail <- Some node);
  s.head <- Some node

(* Write a dirty node's payload back through the backing store.  Called
   with the stripe lock held; the backing store must not re-enter the
   pool (it never does — it writes into the transaction buffer). *)
let write_back t node =
  if node.dirty then begin
    let table, page = node.key in
    t.backing.back_write ~table ~page node.data;
    node.dirty <- false
  end

let evict_lru t s =
  match s.tail with
  | None -> ()
  | Some node ->
    if node.dirty then s.dirty_evictions <- s.dirty_evictions + 1;
    write_back t node;
    unlink s node;
    Hashtbl.remove s.table node.key

(** [get t ~table ~page] returns the page payload, reading it through
    the backing store on a miss (and evicting — with write-back for
    dirty pages — when the stripe is full). *)
let get t ~table ~page =
  let key = (table, page) in
  let stripe = stripe_of t key in
  locked stripe (fun s ->
      s.requests <- s.requests + 1;
      match Hashtbl.find_opt s.table key with
      | Some node ->
        unlink s node;
        push_front s node;
        (node.data, `Hit)
      | None ->
        s.misses <- s.misses + 1;
        if Hashtbl.length s.table >= s.s_capacity then evict_lru t s;
        let data = t.backing.back_read ~table ~page in
        let node = { key; data; dirty = false; prev = None; next = None } in
        Hashtbl.replace s.table key node;
        push_front s node;
        (data, `Miss))

(** [peek t ~table ~page] — the current payload without touching the
    LRU order or the statistics: the resident copy (dirty or not) if
    there is one, else a read of the backing store that is not cached.
    The export path ([Table.relation]) reads through this. *)
let peek t ~table ~page =
  let key = (table, page) in
  let stripe = stripe_of t key in
  match
    locked stripe (fun s ->
        Option.map (fun node -> node.data) (Hashtbl.find_opt s.table key))
  with
  | Some data -> data
  | None -> t.backing.back_read ~table ~page

(** [store t ~table ~page data] installs a freshly written page payload
    as dirty (counted as one page written).  The payload reaches the
    backing store when the page is evicted or on {!flush_dirty} —
    no-steal within a transaction is the caller's concern (the backing
    store buffers writes until commit). *)
let store t ~table ~page data =
  let key = (table, page) in
  let stripe = stripe_of t key in
  locked stripe (fun s ->
      s.requests <- s.requests + 1;
      s.writes <- s.writes + 1;
      match Hashtbl.find_opt s.table key with
      | Some node ->
        node.data <- data;
        node.dirty <- true;
        unlink s node;
        push_front s node
      | None ->
        if Hashtbl.length s.table >= s.s_capacity then evict_lru t s;
        let node = { key; data; dirty = true; prev = None; next = None } in
        Hashtbl.replace s.table key node;
        push_front s node)

(** [invalidate t ~table ~page] drops a page without write-back (the
    caller has freed or rewritten it behind the pool's back). *)
let invalidate t ~table ~page =
  let key = (table, page) in
  let stripe = stripe_of t key in
  locked stripe (fun s ->
      match Hashtbl.find_opt s.table key with
      | None -> ()
      | Some node ->
        unlink s node;
        Hashtbl.remove s.table key)

(** [flush t] empties the pool — the cold-cache protocol of Section
    5.1.  Statistics are kept.  Dirty pages are written back through
    the backing store first, so no committed-but-cached data is lost. *)
let flush t =
  Array.iter
    (fun stripe ->
      locked stripe (fun s ->
          Hashtbl.iter (fun _ node -> write_back t node) s.table;
          Hashtbl.reset s.table;
          s.head <- None;
          s.tail <- None))
    t.stripes

(** Write back every dirty page (keeping it resident and clean).  The
    transaction commit path calls this so the backing store's buffer
    holds the complete write set. *)
let flush_dirty t =
  Array.iter
    (fun stripe ->
      locked stripe (fun s ->
          Hashtbl.iter (fun _ node -> write_back t node) s.table))
    t.stripes

(** Drop every dirty page without writing it back (transaction abort). *)
let drop_dirty t =
  Array.iter
    (fun stripe ->
      locked stripe (fun s ->
          let doomed =
            Hashtbl.fold
              (fun _ node acc -> if node.dirty then node :: acc else acc)
              s.table []
          in
          List.iter
            (fun node ->
              unlink s node;
              Hashtbl.remove s.table node.key)
            doomed))
    t.stripes

(** [store_through t ~table ~page data] writes a page straight to the
    backing store (the bulk loader's path), dropping any resident copy;
    counted as one page written. *)
let store_through t ~table ~page data =
  let key = (table, page) in
  let stripe = stripe_of t key in
  locked stripe (fun s ->
      s.writes <- s.writes + 1;
      match Hashtbl.find_opt s.table key with
      | None -> ()
      | Some node ->
        unlink s node;
        Hashtbl.remove s.table key);
  t.backing.back_write ~table ~page data

let requests t = sum_over t (fun s -> s.requests)

(** Physical page reads ("disk accesses"). *)
let misses t = sum_over t (fun s -> s.misses)

(** Pages written by update operations. *)
let writes t = sum_over t (fun s -> s.writes)

(** Evictions that had to write a dirty page back first — each one is
    a foreground write stall a better flush schedule could hide. *)
let dirty_evictions t = sum_over t (fun s -> s.dirty_evictions)

let reset_stats t =
  Array.iter
    (fun stripe ->
      locked stripe (fun s ->
          s.requests <- 0;
          s.misses <- 0;
          s.writes <- 0;
          s.dirty_evictions <- 0))
    t.stripes

let pp ppf t =
  Format.fprintf ppf "requests=%d misses=%d writes=%d resident=%d/%d"
    (requests t) (misses t) (writes t) (resident t) (capacity t)
