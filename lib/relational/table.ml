(** Base tables: a relation stored in clustered order with secondary B+
    tree indexes, mirroring the paper's storage setup (Section 5.2.1):
    relations SP(plabel, start, end, level, data) clustered by
    {plabel, start} and SD(tag, start, end, level, data) clustered by
    {tag, start}, with indexes on every queried attribute.

    The tuples live on pages of a {!Page_store} — a database file or the
    in-memory page store — addressed by page id.  A resident directory
    maps each page to its first cluster key and row count, secondary
    indexes are {!Paged_index} two-level trees, and every fetch reads
    its pages through the store's buffer pool, so `Counters.page_reads`
    counts real pool misses for every storage alike.

    Every access method charges {!Counters} with the tuples it fetches —
    this is the "visited elements" / disk-access proxy of the paper's
    figures (rows are fetched in clustered order, so fetched tuples and
    page reads are proportional). *)

type dir_entry = {
  de_page : int;  (** page id *)
  de_nrows : int;
  de_first : Tuple.t;  (** first tuple on the page (cluster order) *)
}

type t = {
  name : string;
  schema : Schema.t;
  cluster_key : string list;
  store : Page_store.t;
  mutable dir : dir_entry array;  (** pages in cluster order *)
  mutable seq : (int, int) Hashtbl.t;  (** page id -> directory slot *)
  mutable indexes : (string * Paged_index.t) list;
}

(** Default page occupancy of a bulk load: headroom for in-place edits. *)
let default_fill = 0.9

let name t = t.name

let schema t = t.schema

let cluster_key t = t.cluster_key

let store t = t.store

let codec t = t.store.Page_store.codec

let has_index t column = List.mem_assoc column t.indexes

let rebuild_seq t =
  let seq = Hashtbl.create (Array.length t.dir * 2) in
  Array.iteri (fun i e -> Hashtbl.replace seq e.de_page i) t.dir;
  t.seq <- seq

let encode t rows = Codec.encode_page ~format:(codec t) rows

(** [of_layout store ~name ~schema ~cluster_key ~dir ~indexes]
    assembles a table from an already materialized layout (the database
    open path): [dir] is the clustered page directory and [indexes] the
    leaf directory of each column's index.  Pages are read through the
    store's pool on demand. *)
let of_layout store ~name ~schema ~cluster_key ~dir ~indexes =
  let t =
    {
      name;
      schema;
      cluster_key;
      store;
      dir;
      seq = Hashtbl.create 16;
      indexes =
        List.map
          (fun (col, leaves) ->
            (col, Paged_index.create ~store ~name:(name ^ "." ^ col) ~leaves))
          indexes;
    }
  in
  rebuild_seq t;
  t

(* Lexicographic comparison on the cluster-key columns. *)
let cluster_cmp schema cluster_key =
  let idx = List.map (Schema.index_of schema) cluster_key in
  fun a b ->
    let rec go = function
      | [] -> 0
      | i :: rest ->
        let c = Value.compare (Tuple.get a i) (Tuple.get b i) in
        if c <> 0 then c else go rest
    in
    go idx

(* Aggregates the [(value, page, 1)] occurrences of column [pos] over
   the loaded pages into sorted index entries. *)
let index_entries pages pos =
  let raw =
    List.concat_map
      (fun (page, rows) -> List.map (fun t -> (Tuple.get t pos, page, 1)) rows)
      pages
  in
  let rec merge = function
    | (v1, p1, n1) :: (v2, p2, n2) :: rest
      when Paged_index.entry_cmp (v1, p1, 0) (v2, p2, 0) = 0 ->
      merge ((v1, p1, n1 + n2) :: rest)
    | e :: rest -> e :: merge rest
    | [] -> []
  in
  merge (List.sort Paged_index.entry_cmp raw)

(** [load ?fill store ~name ~schema ~cluster_key ~indexes tuples] — the
    bulk loader: sorts [tuples] by [cluster_key] (stably), cuts them
    into pages of at most [fill] (default 0.9) of the store's capacity
    under its codec, writes the pages and then every index's leaves
    straight to the page store, in that order.  Every column of
    [indexes] gets an index, and so does the cluster key's leading
    column. *)
let load ?(fill = default_fill) store ~name ~schema ~cluster_key ~indexes
    tuples =
  let format = store.Page_store.codec in
  let rows = List.stable_sort (cluster_cmp schema cluster_key) tuples in
  let pages =
    Codec.pack_pages ~format ~capacity:store.Page_store.capacity ~fill rows
    |> List.map (fun rows ->
           ( Page_store.fresh store ~table:name rows
               ~encode:(Codec.encode_page ~format),
             rows ))
  in
  let columns =
    List.sort_uniq String.compare
      (match cluster_key with
      | leading :: _ -> leading :: indexes
      | [] -> indexes)
  in
  of_layout store ~name ~schema ~cluster_key
    ~dir:
      (Array.of_list
         (List.map
            (fun (page, rows) ->
              { de_page = page; de_nrows = List.length rows; de_first = List.hd rows })
            pages))
    ~indexes:
      (List.map
         (fun col ->
           ( col,
             Paged_index.load ~store ~name:(name ^ "." ^ col) ~fill
               (index_entries pages (Schema.index_of schema col)) ))
         columns)

(* A page's rows whose column [col] lies in [lo, hi]: filtered from a
   store of rows, selected on the encoded columns from a store of
   bytes, so only the rows that pass are built. *)
let select_page t ~col ~lo ~hi = function
  | Buffer_pool.Rows rows -> Codec.filter_rows ~col ~lo ~hi rows
  | Buffer_pool.Bytes payload ->
      Codec.select ~format:(codec t) payload ~col ~lo ~hi

(* All of a page's rows. *)
let rows_of t = select_page t ~col:0 ~lo:None ~hi:None

(* Reads one data page through the pool, charging the cost vector. *)
let read_page t counters page =
  rows_of t (Page_store.read t.store counters ~table:t.name ~page)

let cardinality t = Array.fold_left (fun acc e -> acc + e.de_nrows) 0 t.dir

(** The clustered tuples as a relation, read page by page without
    charging anyone or disturbing the pool — an export/debug path, not
    an access method. *)
let relation t =
  let rows =
    Array.to_list t.dir
    |> List.concat_map (fun e ->
           rows_of t
             (Buffer_pool.peek t.store.Page_store.pool ~table:t.name
                ~page:e.de_page))
  in
  Relation.make t.schema (Array.of_list rows)

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)

(* Fetches the given data pages (dir order) and keeps the rows whose
   column [col] lies in [lo, hi]; matching rows are the "visited
   elements" charged to the cost vector. *)
let fetch_pages_seq t counters pages ~col ~lo ~hi =
  List.concat_map
    (fun page ->
      let rows =
        select_page t ~col ~lo ~hi
          (Page_store.read t.store counters ~table:t.name ~page)
      in
      counters.Counters.tuples_read <-
        counters.Counters.tuples_read + List.length rows;
      rows)
    pages

(* Contiguous page chunks for parallel fetch: each page is whole within
   one chunk, so counter totals match the sequential fetch. *)
let chunk_pages ~lanes pages =
  let arr = Array.of_list pages in
  let n = Array.length arr in
  let lanes = max 1 (min lanes n) in
  List.init lanes (fun lane ->
      let lo = lane * n / lanes and hi = (lane + 1) * n / lanes in
      Array.to_list (Array.sub arr lo (hi - lo)))
  |> List.filter (fun c -> c <> [])

let fetch_pages t ?par counters pages ~col ~lo ~hi =
  match par with
  | Some pool when Blas_par.Pool.size pool > 1 && List.length pages > 1 -> (
    match chunk_pages ~lanes:(Blas_par.Pool.size pool) pages with
    | [] | [ _ ] -> fetch_pages_seq t counters pages ~col ~lo ~hi
    | chunks ->
      let tasks =
        Array.of_list
          (List.map
             (fun chunk () ->
               let c = Counters.create () in
               let tuples = fetch_pages_seq t c chunk ~col ~lo ~hi in
               (c, tuples))
             chunks)
      in
      let results = Blas_par.Pool.run pool tasks in
      Array.iter (fun (c, _) -> Counters.add ~into:counters c) results;
      List.concat_map snd (Array.to_list results))
  | _ -> fetch_pages_seq t counters pages ~col ~lo ~hi

(* Candidate pages in directory (cluster) order. *)
let order_pages t pages =
  List.sort
    (fun a b ->
      let sa = Option.value ~default:max_int (Hashtbl.find_opt t.seq a)
      and sb = Option.value ~default:max_int (Hashtbl.find_opt t.seq b) in
      Int.compare sa sb)
    pages

(* @raise Not_found if [column] has no index. *)
let index t column = List.assoc column t.indexes

(* ------------------------------------------------------------------ *)
(* Access methods                                                      *)

(** Full scan: reads every tuple (and every page). *)
let scan t counters =
  fetch_pages_seq t counters
    (Array.to_list t.dir |> List.map (fun e -> e.de_page))
    ~col:0 ~lo:None ~hi:None

(** Equality lookup through the index on [column].  With a multi-domain
    [par] pool, the page fetch is split into contiguous chunks.
    @raise Not_found if the column has no index. *)
let index_eq t ?par counters ~column value =
  let idx = index t column in
  counters.Counters.index_seeks <- counters.Counters.index_seeks + 1;
  let pages =
    Paged_index.lookup_pages idx counters ~lo:(Some value) ~hi:(Some value)
    |> order_pages t
  in
  fetch_pages t ?par counters pages
    ~col:(Schema.index_of t.schema column)
    ~lo:(Some value) ~hi:(Some value)

(** Range lookup [lo <= column <= hi] through the index ([None] bounds are
    open); rows come back in clustered order.  With a multi-domain [par]
    pool, the page fetch is split into contiguous chunks.
    @raise Not_found if the column has no index. *)
let index_range t ?par counters ~column ~lo ~hi =
  let idx = index t column in
  counters.Counters.index_seeks <- counters.Counters.index_seeks + 1;
  let pages = Paged_index.lookup_pages idx counters ~lo ~hi |> order_pages t in
  fetch_pages t ?par counters pages ~col:(Schema.index_of t.schema column)
    ~lo ~hi

(* ------------------------------------------------------------------ *)
(* In-place edits (the update subsystem)                               *)

(* First directory slot whose first tuple is >= key (cluster order);
   [Array.length] when none. *)
let dir_lower_bound cmp t key =
  let lo = ref 0 and hi = ref (Array.length t.dir) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp t.dir.(mid).de_first key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Directory slots that can hold tuples with [key]'s cluster key: from
   one before the first slot whose first tuple is >= key, through the
   last slot whose first tuple compares <= key. *)
let dir_range cmp t key =
  let n = Array.length t.dir in
  let lb = dir_lower_bound cmp t key in
  let s = max 0 (lb - 1) in
  let e = ref (lb - 1) in
  while !e + 1 < n && cmp t.dir.(!e + 1).de_first key = 0 do
    incr e
  done;
  (s, min (max !e s) (n - 1))

(** [apply_edits t counters ~deletes ~inserts] removes each tuple of
    [deletes] (matched by {!Tuple.equal}, one occurrence per listed
    tuple), inserts every tuple of [inserts] at its clustered position,
    and maintains the secondary indexes.

    The edits are page-local, as in a clustered B+-tree: only the
    pages holding a deleted row or receiving an inserted one are read
    and rewritten through the buffer pool (splitting on overflow,
    freeing on empty), and every secondary index charges one descent
    per affected row.  Returns the number of page writes.
    @raise Invalid_argument if some delete is not present. *)
let apply_edits t counters ~deletes ~inserts =
  let cmp = cluster_cmp t.schema t.cluster_key in
  let store = t.store in
  (* Decoded page cache: page id -> rows (charged once). *)
  let cache : (int, Tuple.t list) Hashtbl.t = Hashtbl.create 16 in
  let load page =
    match Hashtbl.find_opt cache page with
    | Some rows -> rows
    | None ->
      let rows = read_page t counters page in
      Hashtbl.replace cache page rows;
      rows
  in
  (* Pass 1: locate every delete (validation before any mutation). *)
  let del_by_page : (int, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let pending page =
    match Hashtbl.find_opt del_by_page page with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace del_by_page page r;
      r
  in
  List.iter
    (fun d ->
      if Array.length t.dir = 0 then
        invalid_arg "Table.apply_edits: delete not present";
      let s, e = dir_range cmp t d in
      let placed = ref false in
      let i = ref s in
      while (not !placed) && !i <= e do
        let page = t.dir.(!i).de_page in
        let have =
          List.length (List.filter (Tuple.equal d) (load page))
        in
        let claimed =
          List.length (List.filter (Tuple.equal d) !(pending page))
        in
        if have > claimed then begin
          let r = pending page in
          r := d :: !r;
          placed := true
        end;
        incr i
      done;
      if not !placed then invalid_arg "Table.apply_edits: delete not present")
    deletes;
  (* Pass 2: route every insert to its target page (cluster position). *)
  let ins_by_page : (int, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let fresh_inserts = ref [] in
  List.iter
    (fun ins ->
      if Array.length t.dir = 0 then fresh_inserts := ins :: !fresh_inserts
      else begin
        let _, e = dir_range cmp t ins in
        let slot = max 0 e in
        let page = t.dir.(slot).de_page in
        let r =
          match Hashtbl.find_opt ins_by_page page with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace ins_by_page page r;
            r
        in
        r := ins :: !r
      end)
    inserts;
  (* Pass 3: rewrite the affected pages. *)
  let writes = ref 0 in
  let index_deltas : (string, Paged_index.entry list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let delta column e =
    let r =
      match Hashtbl.find_opt index_deltas column with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace index_deltas column r;
        r
    in
    r := e :: !r
  in
  let col_positions =
    List.map (fun (c, _) -> (c, Schema.index_of t.schema c)) t.indexes
  in
  let account rows page sign =
    List.iter
      (fun row ->
        List.iter
          (fun (c, i) -> delta c (Tuple.get row i, page, sign))
          col_positions)
      rows
  in
  (* Writes one page of [rows]; its directory entry. *)
  let write_page page rows =
    incr writes;
    Page_store.write store counters ~table:t.name ~page rows ~encode:(encode t);
    { de_page = page; de_nrows = List.length rows; de_first = List.hd rows }
  in
  (* Cuts [rows] into full pages, the first on [first] if given, and
     indexes every row at its page. *)
  let write_pages ?first rows =
    Codec.pack_pages ~format:store.codec ~capacity:store.capacity ~fill:1.0
      rows
    |> List.mapi (fun k rows ->
           let page =
             match first with
             | Some page when k = 0 -> page
             | _ -> store.alloc ()
           in
           account rows page 1;
           write_page page rows)
  in
  let affected =
    let keys = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) del_by_page;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) ins_by_page;
    Hashtbl.fold (fun k () acc -> k :: acc) keys [] |> order_pages t
  in
  (* Replacement directory entries per slot. *)
  let repl : (int, dir_entry list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun page ->
      let slot = Hashtbl.find t.seq page in
      let old_rows = load page in
      let dels =
        match Hashtbl.find_opt del_by_page page with
        | Some r -> !r
        | None -> []
      in
      let kept =
        List.fold_left
          (fun rows d ->
            let found = ref false in
            List.filter
              (fun row ->
                if (not !found) && Tuple.equal d row then begin
                  found := true;
                  false
                end
                else true)
              rows)
          old_rows dels
      in
      let ins =
        match Hashtbl.find_opt ins_by_page page with
        | Some r -> List.stable_sort cmp (List.rev !r)
        | None -> []
      in
      (* Merge with inserts placed before equal kept rows. *)
      let rec merge kept ins =
        match (kept, ins) with
        | rows, [] -> rows
        | [], rest -> rest
        | k :: ktl, i :: itl ->
          if cmp i k <= 0 then i :: merge kept itl else k :: merge ktl ins
      in
      let new_rows = merge kept ins in
      (* Index deltas only for rows that changed (value, page): the
         deleted and inserted ones, or every row when the page splits. *)
      Hashtbl.replace repl slot
        (match new_rows with
        | [] ->
          account dels page (-1);
          Page_store.drop store ~table:t.name ~page;
          []
        | rows when Codec.page_bytes ~format:store.codec rows <= store.capacity
          ->
          account dels page (-1);
          account ins page 1;
          [ write_page page rows ]
        | rows ->
          (* Page split: the first chunk keeps the page id, the rest go
             to fresh pages. *)
          account old_rows page (-1);
          write_pages ~first:page rows))
    affected;
  (* Fresh pages when the table was empty. *)
  let tail_entries =
    match !fresh_inserts with
    | [] -> []
    | rows -> write_pages (List.stable_sort cmp (List.rev rows))
  in
  (* Splice the directory.  When every affected page kept its slot
     (no split, no emptied page, no fresh tail), the page -> slot map
     still holds. *)
  let same_pages =
    tail_entries = []
    && Hashtbl.fold
         (fun slot es ok ->
           ok && match es with [ e ] -> e.de_page = t.dir.(slot).de_page | _ -> false)
         repl true
  in
  if same_pages then begin
    let dir = Array.copy t.dir in
    Hashtbl.iter (fun slot es -> dir.(slot) <- List.hd es) repl;
    t.dir <- dir
  end
  else begin
    let out = ref [] in
    Array.iteri
      (fun slot e ->
        match Hashtbl.find_opt repl slot with
        | None -> out := e :: !out
        | Some es -> List.iter (fun e -> out := e :: !out) es)
      t.dir;
    List.iter (fun e -> out := e :: !out) tail_entries;
    t.dir <- Array.of_list (List.rev !out);
    rebuild_seq t
  end;
  (* Index maintenance. *)
  counters.Counters.index_seeks <-
    counters.Counters.index_seeks
    + ((List.length deletes + List.length inserts) * List.length t.indexes);
  List.iter
    (fun (column, idx) ->
      match Hashtbl.find_opt index_deltas column with
      | None -> ()
      | Some r -> Paged_index.apply idx counters (List.rev !r))
    t.indexes;
  !writes

(** Pages occupied by the clustered tuples. *)
let page_count t = Array.length t.dir

(** The page layout — directory plus per-index leaf metadata — for the
    catalog writer. *)
let layout t =
  (t.dir, List.map (fun (c, idx) -> (c, Paged_index.layout idx)) t.indexes)

(** Average clustered rows per page: the directory's measured density.
    This is what the cost model prices a page read at — under a
    compressing codec it grows, and scans get cheaper. *)
let avg_page_rows t =
  let pages = Array.length t.dir in
  if pages = 0 then 64 else max 1 ((cardinality t + pages - 1) / pages)

(** Every page the table owns (data pages and index leaves). *)
let owned_pages t =
  let data = Array.to_list t.dir |> List.map (fun e -> e.de_page) in
  let leaves =
    List.concat_map
      (fun (_, idx) ->
        Array.to_list (Paged_index.layout idx)
        |> List.map (fun m -> m.Paged_index.m_page))
      t.indexes
  in
  data @ leaves

(** [drop t] frees every page the table owns (the table must not be
    used afterwards). *)
let drop t =
  List.iter (fun (_, idx) -> Paged_index.drop idx) t.indexes;
  Array.iter
    (fun e -> Page_store.drop t.store ~table:t.name ~page:e.de_page)
    t.dir
