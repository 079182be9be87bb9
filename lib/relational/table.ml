(** Base tables: a relation stored in clustered order with secondary B+
    tree indexes, mirroring the paper's storage setup (Section 5.2.1):
    relations SP(plabel, start, end, level, data) clustered by
    {plabel, start} and SD(tag, start, end, level, data) clustered by
    {tag, start}, with indexes on every queried attribute.

    A table has one of two backings:

    - {b Heap}: the clustered tuples live in an in-memory array and the
      buffer pool does page {e accounting} only (every fetch requests
      the row's modelled page; a miss counts as one disk access).
    - {b Paged}: the tuples live on disk pages addressed by page id; a
      resident directory maps each page to its first cluster key and
      row count, secondary indexes are {!Paged_index} two-level trees,
      and every fetch really decodes page payloads read through the
      buffer pool — `Counters.page_reads` is measured I/O.

    Every access method charges {!Counters} with the tuples it fetches —
    this is the "visited elements" / disk-access proxy of the paper's
    figures (rows are fetched in clustered order, so fetched tuples and
    page reads are proportional). *)

module Value_btree = Btree.Make (Value)

type heap = {
  mutable relation : Relation.t;  (* tuples in clustered order *)
  indexes : (string, int Value_btree.t) Hashtbl.t;  (* column -> row ids *)
  page_rows : int;  (* tuples per modelled page *)
}

type dir_entry = {
  de_page : int;  (** file page id *)
  de_nrows : int;
  de_first : Tuple.t;  (** first tuple on the page (cluster order) *)
}

type paged = {
  p_alloc : unit -> int;
  p_free : int -> unit;
  p_capacity : int;  (** page payload capacity in bytes *)
  p_codec : Codec.format;  (** page payload encoding *)
  mutable p_dir : dir_entry array;  (** pages in cluster order *)
  mutable p_seq : (int, int) Hashtbl.t;  (** page id -> directory slot *)
  mutable p_indexes : (string * Paged_index.t) list;
}

type backing = Heap of heap | Paged of paged

type t = {
  name : string;
  schema : Schema.t;
  cluster_key : string list;
  pool : Buffer_pool.t option;  (* shared page cache *)
  backing : backing;
}

let name t = t.name

let schema t = t.schema

let cluster_key t = t.cluster_key

let is_paged t = match t.backing with Paged _ -> true | Heap _ -> false

let has_index t column =
  match t.backing with
  | Heap h -> Hashtbl.mem h.indexes column
  | Paged p -> List.mem_assoc column p.p_indexes

let indexed_columns t =
  match t.backing with
  | Heap h ->
    List.sort String.compare
      (Hashtbl.fold (fun c _ acc -> c :: acc) h.indexes [])
  | Paged p -> List.sort String.compare (List.map fst p.p_indexes)

(** [create ?pool ?page_rows ~name ~schema ~cluster_key ~indexes tuples]
    builds a heap table: sorts [tuples] by [cluster_key] and builds a B+
    tree for each column in [indexes] (the cluster key's leading column
    always gets one).  With a [pool], every tuple fetch requests its
    page, charging page misses as disk accesses; [page_rows] (default
    64) is the page size in tuples. *)
let create ?pool ?(page_rows = 64) ~name ~schema ~cluster_key ~indexes tuples =
  if page_rows < 1 then invalid_arg "Table.create: page_rows must be >= 1";
  let relation =
    Relation.sort_by (Relation.make schema (Array.of_list tuples)) cluster_key
  in
  let heap = { relation; indexes = Hashtbl.create 8; page_rows } in
  let table = { name; schema; cluster_key; pool; backing = Heap heap } in
  let wanted =
    match cluster_key with
    | leading :: _ when not (List.mem leading indexes) -> leading :: indexes
    | _ -> indexes
  in
  List.iter
    (fun column ->
      let i = Schema.index_of schema column in
      let index = Value_btree.create () in
      Array.iteri
        (fun row tuple -> Value_btree.insert index (Tuple.get tuple i) row)
        (Relation.tuples relation);
      Hashtbl.replace heap.indexes column index)
    wanted;
  table

let rebuild_seq p =
  let seq = Hashtbl.create (Array.length p.p_dir * 2) in
  Array.iteri (fun i e -> Hashtbl.replace seq e.de_page i) p.p_dir;
  p.p_seq <- seq

(** [create_paged ~pool ~alloc ~free ~capacity ~name ~schema
    ~cluster_key ~dir ~indexes] assembles a disk-backed table from an
    already materialized layout (the database open path): [dir] is the
    clustered page directory and [indexes] the per-column paged
    indexes.  Page payloads are read through [pool] on demand. *)
let create_paged ?(codec = Codec.V1) ~pool ~alloc ~free ~capacity ~name ~schema
    ~cluster_key ~dir ~indexes () =
  let p =
    {
      p_alloc = alloc;
      p_free = free;
      p_capacity = capacity;
      p_codec = codec;
      p_dir = dir;
      p_seq = Hashtbl.create 16;
      p_indexes = indexes;
    }
  in
  rebuild_seq p;
  { name; schema; cluster_key; pool = Some pool; backing = Paged p }

(** The active page codec: the paged backing's format; heap tables are
    modelled, not encoded, so they report {!Codec.V1}. *)
let codec t =
  match t.backing with Paged p -> p.p_codec | Heap _ -> Codec.V1

let the_pool t =
  match t.pool with
  | Some pool -> pool
  | None -> assert false (* paged tables always carry a pool *)

(* Reads and decodes one data page through the pool, charging the cost
   vector. *)
let read_page_paged t counters page =
  counters.Counters.page_requests <- counters.Counters.page_requests + 1;
  let payload, result = Buffer_pool.get (the_pool t) ~table:t.name ~page in
  (match result with
  | `Hit -> ()
  | `Miss -> counters.Counters.page_reads <- counters.Counters.page_reads + 1);
  Codec.decode_page ~format:(codec t) payload

let cardinality t =
  match t.backing with
  | Heap h -> Relation.cardinality h.relation
  | Paged p -> Array.fold_left (fun acc e -> acc + e.de_nrows) 0 p.p_dir

(** The clustered tuples as a relation.  Heap: the live array.  Paged:
    materialized by decoding every page (through the pool, uncharged —
    this is an export/debug path, not an access method). *)
let relation t =
  match t.backing with
  | Heap h -> h.relation
  | Paged p ->
    let c = Counters.create () in
    let rows =
      Array.to_list p.p_dir
      |> List.concat_map (fun e -> read_page_paged t c e.de_page)
    in
    Relation.make t.schema (Array.of_list rows)

(* ------------------------------------------------------------------ *)
(* Heap access paths                                                   *)

(* Charges one page request (and, on a miss, one page read) to the
   run's counters — the unified cost vector of {!Counters}. *)
let request_page t (h : heap) counters page =
  ignore h;
  match t.pool with
  | None -> ()
  | Some pool ->
    counters.Counters.page_requests <- counters.Counters.page_requests + 1;
    (match Buffer_pool.access pool ~table:t.name ~page with
    | `Hit -> ()
    | `Miss -> counters.Counters.page_reads <- counters.Counters.page_reads + 1)

(* Requests the pages behind a list of row ids (already sorted, so
   consecutive clustered rows coalesce into one request per page). *)
let touch_pages t h counters rows =
  match t.pool with
  | None -> ()
  | Some _ ->
    let last = ref (-1) in
    List.iter
      (fun row ->
        let page = row / h.page_rows in
        if page <> !last then begin
          last := page;
          request_page t h counters page
        end)
      rows

let fetch_rows t h counters rows =
  counters.Counters.tuples_read <- counters.Counters.tuples_read + List.length rows;
  touch_pages t h counters rows;
  let tuples = Relation.tuples h.relation in
  List.map (fun row -> tuples.(row)) rows

(* Splits sorted row ids into at most [lanes] contiguous chunks whose
   boundaries fall on page boundaries, so no page's rows straddle two
   chunks: per-chunk page coalescing then charges exactly the requests
   the sequential fetch would, and concurrent chunks never contend for
   the same page. *)
let page_aligned_chunks h ~lanes rows =
  let arr = Array.of_list rows in
  let n = Array.length arr in
  let lanes = max 1 (min lanes n) in
  let chunks = ref [] in
  let start = ref 0 in
  for lane = 0 to lanes - 1 do
    let target = (lane + 1) * n / lanes in
    let stop = ref (max target !start) in
    (* Extend to the next page boundary. *)
    while
      !stop > !start && !stop < n
      && arr.(!stop) / h.page_rows = arr.(!stop - 1) / h.page_rows
    do
      incr stop
    done;
    if !stop > !start then begin
      chunks := Array.to_list (Array.sub arr !start (!stop - !start)) :: !chunks;
      start := !stop
    end
  done;
  List.rev !chunks

(* Fetches [rows] through [par] when it buys parallelism, charging each
   chunk to a fresh counter vector merged back in chunk order — totals
   equal the sequential fetch (page reads aside, which depend on what
   other domains race into the buffer pool meanwhile). *)
let fetch_rows_par t h par counters rows =
  match par with
  | Some pool when Blas_par.Pool.size pool > 1 && List.length rows > 1 -> (
    match page_aligned_chunks h ~lanes:(Blas_par.Pool.size pool) rows with
    | [] | [ _ ] -> fetch_rows t h counters rows
    | chunks ->
      let tasks =
        Array.of_list
          (List.map
             (fun chunk () ->
               let c = Counters.create () in
               let tuples = fetch_rows t h c chunk in
               (c, tuples))
             chunks)
      in
      let results = Blas_par.Pool.run pool tasks in
      Array.iter (fun (c, _) -> Counters.add ~into:counters c) results;
      List.concat_map snd (Array.to_list results))
  | _ -> fetch_rows t h counters rows

(* ------------------------------------------------------------------ *)
(* Paged access paths                                                  *)

(* Fetches the given data pages (dir order) and keeps rows matching
   [pred]; matching rows are the "visited elements" charged to the
   cost vector. *)
let fetch_pages_seq t counters pages pred =
  List.concat_map
    (fun page ->
      let rows = List.filter pred (read_page_paged t counters page) in
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

let fetch_pages t ?par counters pages pred =
  match par with
  | Some pool when Blas_par.Pool.size pool > 1 && List.length pages > 1 -> (
    match chunk_pages ~lanes:(Blas_par.Pool.size pool) pages with
    | [] | [ _ ] -> fetch_pages_seq t counters pages pred
    | chunks ->
      let tasks =
        Array.of_list
          (List.map
             (fun chunk () ->
               let c = Counters.create () in
               let tuples = fetch_pages_seq t c chunk pred in
               (c, tuples))
             chunks)
      in
      let results = Blas_par.Pool.run pool tasks in
      Array.iter (fun (c, _) -> Counters.add ~into:counters c) results;
      List.concat_map snd (Array.to_list results))
  | _ -> fetch_pages_seq t counters pages pred

(* Candidate pages in directory (cluster) order. *)
let order_pages p pages =
  List.sort
    (fun a b ->
      let sa = Option.value ~default:max_int (Hashtbl.find_opt p.p_seq a)
      and sb = Option.value ~default:max_int (Hashtbl.find_opt p.p_seq b) in
      Int.compare sa sb)
    pages

let paged_index p column =
  match List.assoc_opt column p.p_indexes with
  | Some idx -> idx
  | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Access methods                                                      *)

(** Full scan: reads every tuple (and every page). *)
let scan t counters =
  match t.backing with
  | Heap h ->
    let tuples = Relation.tuples h.relation in
    counters.Counters.tuples_read <-
      counters.Counters.tuples_read + Array.length tuples;
    (match t.pool with
    | None -> ()
    | Some _ ->
      for page = 0 to (Array.length tuples - 1) / h.page_rows do
        request_page t h counters page
      done);
    Array.to_list tuples
  | Paged p ->
    fetch_pages_seq t counters
      (Array.to_list p.p_dir |> List.map (fun e -> e.de_page))
      (fun _ -> true)

(** Equality lookup through the index on [column].  With a multi-domain
    [par] pool, the fetch is partitioned over page-aligned chunks.
    @raise Not_found if the column has no index. *)
let index_eq t ?par counters ~column value =
  match t.backing with
  | Heap h ->
    let index = Hashtbl.find h.indexes column in
    counters.Counters.index_seeks <- counters.Counters.index_seeks + 1;
    let rows = Value_btree.find index value in
    fetch_rows_par t h par counters (List.sort Stdlib.compare rows)
  | Paged p ->
    let idx = paged_index p column in
    counters.Counters.index_seeks <- counters.Counters.index_seeks + 1;
    let pages =
      Paged_index.lookup_pages idx counters ~lo:(Some value) ~hi:(Some value)
      |> order_pages p
    in
    let col = Schema.index_of t.schema column in
    fetch_pages t ?par counters pages (fun row ->
        Value.compare (Tuple.get row col) value = 0)

(** Range lookup [lo <= column <= hi] through the index ([None] bounds are
    open).  Row ids are returned in clustered order.  With a
    multi-domain [par] pool, the fetch is partitioned over page-aligned
    chunks.
    @raise Not_found if the column has no index. *)
let index_range t ?par counters ~column ~lo ~hi =
  match t.backing with
  | Heap h ->
    let index = Hashtbl.find h.indexes column in
    counters.Counters.index_seeks <- counters.Counters.index_seeks + 1;
    let rows =
      Value_btree.fold_range index ~lo ~hi ~init:[] ~f:(fun acc _ row -> row :: acc)
    in
    fetch_rows_par t h par counters (List.sort Stdlib.compare rows)
  | Paged p ->
    let idx = paged_index p column in
    counters.Counters.index_seeks <- counters.Counters.index_seeks + 1;
    let pages = Paged_index.lookup_pages idx counters ~lo ~hi |> order_pages p in
    let col = Schema.index_of t.schema column in
    fetch_pages t ?par counters pages (fun row ->
        let v = Tuple.get row col in
        (match lo with None -> true | Some l -> Value.compare l v <= 0)
        && match hi with None -> true | Some h -> Value.compare v h <= 0)

(* ------------------------------------------------------------------ *)
(* In-place edits (the update subsystem)                               *)

(* Lexicographic comparison on the cluster-key columns — the same order
   Relation.sort_by establishes at build time. *)
let cluster_cmp t =
  let idx = List.map (Schema.index_of t.schema) t.cluster_key in
  fun a b ->
    let rec go = function
      | [] -> 0
      | i :: rest ->
        let c = Value.compare (Tuple.get a i) (Tuple.get b i) in
        if c <> 0 then c else go rest
    in
    go idx

let rebuild_indexes t h =
  let sch = t.schema in
  let columns =
    List.sort String.compare
      (Hashtbl.fold (fun c _ acc -> c :: acc) h.indexes [])
  in
  Hashtbl.reset h.indexes;
  List.iter
    (fun column ->
      let i = Schema.index_of sch column in
      let index = Value_btree.create () in
      Array.iteri
        (fun row tuple -> Value_btree.insert index (Tuple.get tuple i) row)
        (Relation.tuples h.relation);
      Hashtbl.replace h.indexes column index)
    columns

(* Writes the distinct pages behind a list of row ids through the pool;
   returns how many pages that is. *)
let write_pages t h counters rows =
  let pages =
    List.sort_uniq Stdlib.compare (List.map (fun row -> row / h.page_rows) rows)
  in
  (match t.pool with
  | None -> ()
  | Some pool ->
    List.iter
      (fun page ->
        counters.Counters.page_writes <- counters.Counters.page_writes + 1;
        counters.Counters.page_requests <- counters.Counters.page_requests + 1;
        match Buffer_pool.write pool ~table:t.name ~page with
        | `Hit -> ()
        | `Miss -> counters.Counters.page_reads <- counters.Counters.page_reads + 1)
      pages);
  List.length pages

let apply_edits_heap t h counters ~deletes ~inserts =
  let cmp = cluster_cmp t in
  let old = Relation.tuples h.relation in
  let n = Array.length old in
  let del =
    Array.of_list
      (List.sort
         (fun a b ->
           let c = cmp a b in
           if c <> 0 then c else Tuple.compare a b)
         deletes)
  in
  let nd = Array.length del in
  let matched = Array.make (max nd 1) false in
  let kept = ref [] (* reversed *) in
  let deleted_rows = ref [] (* old row ids *) in
  let i = ref 0 and j = ref 0 in
  let missing () = invalid_arg "Table.apply_edits: delete not present" in
  while !i < n do
    while !j < nd && cmp del.(!j) old.(!i) < 0 do
      if not matched.(!j) then missing ();
      incr j
    done;
    if !j < nd && cmp del.(!j) old.(!i) = 0 then begin
      (* Runs of rows and deletes sharing this cluster key; match the
         multisets pairwise by full-tuple equality. *)
      let run_key = old.(!i) in
      let run_start = !i in
      while !i < n && cmp old.(!i) run_key = 0 do
        incr i
      done;
      let dstart = !j in
      while !j < nd && cmp del.(!j) run_key = 0 do
        incr j
      done;
      for r = run_start to !i - 1 do
        let row = old.(r) in
        let hit = ref false in
        for d = dstart to !j - 1 do
          if (not !hit) && (not matched.(d)) && Tuple.equal del.(d) row then begin
            matched.(d) <- true;
            hit := true;
            deleted_rows := r :: !deleted_rows
          end
        done;
        if not !hit then kept := row :: !kept
      done
    end
    else begin
      kept := old.(!i) :: !kept;
      incr i
    end
  done;
  Array.iteri (fun d m -> if d < nd && not m then missing ()) matched;
  let kept = Array.of_list (List.rev !kept) in
  let ins = Array.of_list (List.stable_sort cmp inserts) in
  (* Merge the surviving rows with the sorted inserts, tracking where
     each insert lands in the new clustered layout. *)
  let merged = ref [] and inserted_rows = ref [] in
  let ai = ref 0 and bi = ref 0 and pos = ref 0 in
  let ka = Array.length kept and kb = Array.length ins in
  while !ai < ka || !bi < kb do
    if !bi < kb && (!ai >= ka || cmp ins.(!bi) kept.(!ai) <= 0) then begin
      merged := ins.(!bi) :: !merged;
      inserted_rows := !pos :: !inserted_rows;
      incr bi
    end
    else begin
      merged := kept.(!ai) :: !merged;
      incr ai
    end;
    incr pos
  done;
  h.relation <- Relation.make t.schema (Array.of_list (List.rev !merged));
  rebuild_indexes t h;
  counters.Counters.index_seeks <-
    counters.Counters.index_seeks
    + ((nd + kb) * List.length (indexed_columns t));
  write_pages t h counters (List.rev !deleted_rows)
  + write_pages t h counters (List.rev !inserted_rows)

(* First directory slot whose first tuple is >= key (cluster order);
   [Array.length] when none. *)
let dir_lower_bound cmp p key =
  let lo = ref 0 and hi = ref (Array.length p.p_dir) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp p.p_dir.(mid).de_first key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Directory slots that can hold tuples with [key]'s cluster key: from
   one before the first slot whose first tuple is >= key, through the
   last slot whose first tuple compares <= key. *)
let dir_range cmp p key =
  let n = Array.length p.p_dir in
  let lb = dir_lower_bound cmp p key in
  let s = max 0 (lb - 1) in
  let e = ref (lb - 1) in
  while !e + 1 < n && cmp p.p_dir.(!e + 1).de_first key = 0 do
    incr e
  done;
  (s, min (max !e s) (n - 1))

let apply_edits_paged t p counters ~deletes ~inserts =
  let cmp = cluster_cmp t in
  let pool = the_pool t in
  (* Decoded page cache: page id -> rows (charged once). *)
  let cache : (int, Tuple.t list) Hashtbl.t = Hashtbl.create 16 in
  let load page =
    match Hashtbl.find_opt cache page with
    | Some rows -> rows
    | None ->
      let rows = read_page_paged t counters page in
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
      if Array.length p.p_dir = 0 then
        invalid_arg "Table.apply_edits: delete not present";
      let s, e = dir_range cmp p d in
      let placed = ref false in
      let i = ref s in
      while (not !placed) && !i <= e do
        let page = p.p_dir.(!i).de_page in
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
      if Array.length p.p_dir = 0 then fresh_inserts := ins :: !fresh_inserts
      else begin
        let _, e = dir_range cmp p ins in
        let slot = max 0 e in
        let page = p.p_dir.(slot).de_page in
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
    List.map (fun (c, _) -> (c, Schema.index_of t.schema c)) p.p_indexes
  in
  let account rows page sign =
    List.iter
      (fun row ->
        List.iter
          (fun (c, i) -> delta c (Tuple.get row i, page, sign))
          col_positions)
      rows
  in
  let store_page page payload =
    incr writes;
    counters.Counters.page_writes <- counters.Counters.page_writes + 1;
    counters.Counters.page_requests <- counters.Counters.page_requests + 1;
    Buffer_pool.store pool ~table:t.name ~page payload
  in
  let affected =
    let keys = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) del_by_page;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) ins_by_page;
    Hashtbl.fold (fun k () acc -> k :: acc) keys [] |> order_pages p
  in
  (* Replacement directory entries per slot. *)
  let repl : (int, dir_entry list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun page ->
      let slot = Hashtbl.find p.p_seq page in
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
      (* Merge with inserts placed before equal kept rows, matching the
         heap layout. *)
      let rec merge kept ins =
        match (kept, ins) with
        | rows, [] -> rows
        | [], rest -> rest
        | k :: ktl, i :: itl ->
          if cmp i k <= 0 then i :: merge kept itl else k :: merge ktl ins
      in
      let new_rows = merge kept ins in
      account old_rows page (-1);
      match new_rows with
      | [] ->
        Buffer_pool.invalidate pool ~table:t.name ~page;
        p.p_free page;
        Hashtbl.replace repl slot []
      | rows ->
        let payload = Codec.encode_page ~format:p.p_codec rows in
        if String.length payload <= p.p_capacity then begin
          store_page page payload;
          account rows page 1;
          Hashtbl.replace repl slot
            [ { de_page = page; de_nrows = List.length rows; de_first = List.hd rows } ]
        end
        else begin
          (* Page split: the first chunk keeps the page id, the rest go
             to fresh pages. *)
          let chunks =
            Codec.pack_pages ~format:p.p_codec ~capacity:p.p_capacity ~fill:1.0
              rows
          in
          let entries =
            List.mapi
              (fun k (payload, first, nrows) ->
                let pg = if k = 0 then page else p.p_alloc () in
                store_page pg payload;
                account (Codec.decode_page ~format:p.p_codec payload) pg 1;
                ignore first;
                { de_page = pg; de_nrows = nrows; de_first = first })
              chunks
          in
          Hashtbl.replace repl slot entries
        end)
    affected;
  (* Fresh pages when the table was empty. *)
  let tail_entries =
    match List.rev !fresh_inserts with
    | [] -> []
    | rows ->
      let rows = List.stable_sort cmp rows in
      Codec.pack_pages ~format:p.p_codec ~capacity:p.p_capacity ~fill:1.0 rows
      |> List.map (fun (payload, first, nrows) ->
             let pg = p.p_alloc () in
             store_page pg payload;
             account (Codec.decode_page ~format:p.p_codec payload) pg 1;
             { de_page = pg; de_nrows = nrows; de_first = first })
  in
  (* Splice the directory. *)
  let out = ref [] in
  Array.iteri
    (fun slot e ->
      match Hashtbl.find_opt repl slot with
      | None -> out := e :: !out
      | Some es -> List.iter (fun e -> out := e :: !out) es)
    p.p_dir;
  List.iter (fun e -> out := e :: !out) tail_entries;
  p.p_dir <- Array.of_list (List.rev !out);
  rebuild_seq p;
  (* Index maintenance. *)
  counters.Counters.index_seeks <-
    counters.Counters.index_seeks
    + ((List.length deletes + List.length inserts) * List.length p.p_indexes);
  List.iter
    (fun (column, idx) ->
      match Hashtbl.find_opt index_deltas column with
      | None -> ()
      | Some r -> Paged_index.apply idx counters (List.rev !r))
    p.p_indexes;
  !writes

(** [apply_edits t counters ~deletes ~inserts] removes each tuple of
    [deletes] (matched by {!Tuple.equal}, one occurrence per listed
    tuple), inserts every tuple of [inserts] at its clustered position,
    and maintains the secondary indexes over the new row numbering.

    Costing mirrors a clustered B+-tree: every page holding a deleted
    row (old layout) or an inserted row (new layout) is written through
    the buffer pool, and every secondary index charges one descent per
    affected row.  Returns the number of page writes.  On the paged
    backing the edits are page-local: only the touched pages are
    decoded and rewritten (splitting on overflow, freeing on empty).
    @raise Invalid_argument if some delete is not present. *)
let apply_edits t counters ~deletes ~inserts =
  match t.backing with
  | Heap h -> apply_edits_heap t h counters ~deletes ~inserts
  | Paged p -> apply_edits_paged t p counters ~deletes ~inserts

(** The table's buffer pool, when disk modelling is on. *)
let pool t = t.pool

(** Pages occupied by the clustered tuples. *)
let page_count t =
  match t.backing with
  | Heap h -> (Relation.cardinality h.relation + h.page_rows - 1) / h.page_rows
  | Paged p -> Array.length p.p_dir

(** The disk layout of a paged table — directory plus per-index leaf
    metadata — for the catalog writer; [None] for heap tables. *)
let paged_layout t =
  match t.backing with
  | Heap _ -> None
  | Paged p ->
    Some
      ( p.p_dir,
        List.map (fun (c, idx) -> (c, Paged_index.layout idx)) p.p_indexes )

(** Average clustered rows per page under the active layout: the heap's
    modelled density, or the paged directory's measured one.  This is
    what the cost model should price a page read at — under a
    compressing codec it grows, and scans get cheaper. *)
let avg_page_rows t =
  match t.backing with
  | Heap h -> h.page_rows
  | Paged p ->
    let pages = Array.length p.p_dir in
    if pages = 0 then 64 else max 1 ((cardinality t + pages - 1) / pages)

(** Every file page owned by a paged table (data pages and index
    leaves); [[]] for heap tables. *)
let owned_pages t =
  match t.backing with
  | Heap _ -> []
  | Paged p ->
    let data = Array.to_list p.p_dir |> List.map (fun e -> e.de_page) in
    let leaves =
      List.concat_map
        (fun (_, idx) ->
          Array.to_list (Paged_index.layout idx)
          |> List.map (fun m -> m.Paged_index.m_page))
        p.p_indexes
    in
    data @ leaves
