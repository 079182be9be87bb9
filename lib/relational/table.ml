(** Base tables: a relation stored in clustered order, mirroring the
    paper's storage setup (Section 5.2.1): relations SP(plabel, start,
    end, level, data) clustered by {plabel, start} and SD(tag, start,
    end, level, data) clustered by {tag, start}.

    The tuples live on pages of a {!Page_store} — a database file or the
    in-memory page store — addressed by page id.  A resident directory
    maps each page to its first cluster key and row count; it is the
    only index.  Equality and range selections on the leading
    cluster-key column binary-search it and read just the pages of the
    selected run, and every fetch reads its pages through the store's
    buffer pool, so `Counters.page_reads` counts real pool misses for
    every storage alike.

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
}

(** Default page occupancy of a bulk load: headroom for in-place edits. *)
let default_fill = 0.9

let name t = t.name

let schema t = t.schema

let cluster_key t = t.cluster_key

let store t = t.store

let codec t = t.store.Page_store.codec

let encode t rows = Codec.encode_page ~format:(codec t) rows

(** [of_layout store ~name ~schema ~cluster_key ~dir] assembles a
    table from its clustered page directory (the database open path).
    Pages are read through the store's pool on demand. *)
let of_layout store ~name ~schema ~cluster_key ~dir =
  { name; schema; cluster_key; store; dir }

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

(** [load ?fill store ~name ~schema ~cluster_key tuples] — the bulk
    loader: sorts [tuples] by [cluster_key] (stably), cuts them into
    pages of at most [fill] (default 0.9) of the store's capacity under
    its codec and writes the pages straight to the page store, in
    cluster order. *)
let load ?(fill = default_fill) store ~name ~schema ~cluster_key tuples =
  let format = store.Page_store.codec in
  let rows = List.stable_sort (cluster_cmp schema cluster_key) tuples in
  of_layout store ~name ~schema ~cluster_key
    ~dir:
      (Codec.pack_pages ~format ~capacity:store.Page_store.capacity ~fill rows
      |> List.map (fun rows ->
             {
               de_page =
                 Page_store.fresh store ~table:name rows
                   ~encode:(Codec.encode_page ~format);
               de_nrows = List.length rows;
               de_first = List.hd rows;
             })
      |> Array.of_list)

(* The rows of a page whose column [col] lies in [lo, hi], holding the
   columns at [cols] (default all), prepended to [onto]: filtered and
   projected from a store of rows, selected on the encoded columns from
   a store of bytes, so only the rows that pass and the columns asked
   for are built.  Apply it to everything but [onto] and the page once
   per access. *)
let select_page ?cols t ~col ~lo ~hi =
  let select = Codec.select ~format:(codec t) ?cols ~col ~lo ~hi in
  fun ?onto -> function
    | Buffer_pool.Rows rows -> Codec.filter_rows ?cols ?onto ~col ~lo ~hi rows
    | Buffer_pool.Bytes payload -> select ?onto payload

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
   elements" charged to the cost vector.  The pages are requested in
   directory order; their rows are then built last page first onto one
   list, so no page's rows are copied to concatenate them. *)
let fetch_pages ?cols t counters pages ~col ~lo ~hi =
  let payloads =
    List.rev_map
      (fun page -> Page_store.read t.store counters ~table:t.name ~page)
      pages
  in
  let select = select_page ?cols t ~col ~lo ~hi in
  let rows =
    List.fold_left (fun onto payload -> select ~onto payload) [] payloads
  in
  counters.Counters.tuples_read <-
    counters.Counters.tuples_read + List.length rows;
  rows

(* The page positions of the named columns. *)
let positions t =
  Option.map (fun names ->
      Array.of_list (List.map (Schema.index_of t.schema) names))

(* First directory slot whose first tuple fails [before] (a predicate
   that holds on a prefix of the directory); [Array.length] when none. *)
let first_slot t before =
  let lo = ref 0 and hi = ref (Array.length t.dir) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if before t.dir.(mid).de_first then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Access methods                                                      *)

(** Full scan: reads every tuple (and every page), holding the columns
    [cols] (default all). *)
let scan ?cols t counters =
  fetch_pages ?cols:(positions t cols) t counters
    (Array.to_list t.dir |> List.map (fun e -> e.de_page))
    ~col:0 ~lo:None ~hi:None

(** Range lookup [lo <= column <= hi] ([None] bounds are open) on the
    leading cluster-key column, through the directory: the pages from
    one before the first whose first row is [>= lo] (it may end with
    such rows) through the last whose first row is [<= hi].  Rows come
    back in clustered order, holding the columns [cols] (default all);
    one directory descent is one index seek.
    @raise Not_found if [column] does not lead the cluster key. *)
let index_range ?cols t counters ~column ~lo ~hi =
  let col =
    match t.cluster_key with
    | lead :: _ when String.equal lead column -> Schema.index_of t.schema lead
    | _ -> raise Not_found
  in
  counters.Counters.index_seeks <- counters.Counters.index_seeks + 1;
  let cmp_lead v first = Value.compare (Tuple.get first col) v in
  let s =
    match lo with
    | None -> 0
    | Some v -> max 0 (first_slot t (fun first -> cmp_lead v first < 0) - 1)
  and e =
    match hi with
    | None -> Array.length t.dir - 1
    | Some v -> first_slot t (fun first -> cmp_lead v first <= 0) - 1
  in
  let pages = List.init (max 0 (e - s + 1)) (fun i -> t.dir.(s + i).de_page) in
  fetch_pages ?cols:(positions t cols) t counters pages ~col ~lo ~hi

(** Equality lookup: {!index_range} with [lo = hi = value].
    @raise Not_found if [column] does not lead the cluster key. *)
let index_eq ?cols t counters ~column value =
  index_range ?cols t counters ~column ~lo:(Some value) ~hi:(Some value)

(* ------------------------------------------------------------------ *)
(* In-place edits (the update subsystem)                               *)

(* First directory slot whose first tuple is >= key (cluster order);
   [Array.length] when none. *)
let dir_lower_bound cmp t key = first_slot t (fun first -> cmp first key < 0)

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
    tuple) and inserts every tuple of [inserts] at its clustered
    position.

    The edits are page-local, as in a clustered B+-tree: only the
    pages holding a deleted row or receiving an inserted one are read
    and rewritten through the buffer pool (splitting on overflow,
    freeing on empty), and the directory is spliced to match.  Returns
    the number of page writes.
    @raise Invalid_argument if some delete is not present. *)
let apply_edits t counters ~deletes ~inserts =
  let cmp = cluster_cmp t.schema t.cluster_key in
  let store = t.store in
  (* Decoded rows of a directory slot's page (charged once). *)
  let cache : (int, Tuple.t list) Hashtbl.t = Hashtbl.create 16 in
  let load slot =
    match Hashtbl.find_opt cache slot with
    | Some rows -> rows
    | None ->
      let rows = read_page t counters t.dir.(slot).de_page in
      Hashtbl.replace cache slot rows;
      rows
  in
  (* The rows routed to a slot so far. *)
  let bucket tbl slot =
    match Hashtbl.find_opt tbl slot with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace tbl slot r;
      r
  in
  (* Pass 1: locate every delete (validation before any mutation). *)
  let dels : (int, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Array.length t.dir = 0 then
        invalid_arg "Table.apply_edits: delete not present";
      let s, e = dir_range cmp t d in
      let placed = ref false in
      let slot = ref s in
      while (not !placed) && !slot <= e do
        let count rows = List.length (List.filter (Tuple.equal d) rows) in
        let pending =
          match Hashtbl.find_opt dels !slot with Some r -> !r | None -> []
        in
        (* A bucket opens only when a delete lands in it: a slot merely
           searched must not count as affected and be rewritten. *)
        if count (load !slot) > count pending then begin
          let r = bucket dels !slot in
          r := d :: !r;
          placed := true
        end;
        incr slot
      done;
      if not !placed then invalid_arg "Table.apply_edits: delete not present")
    deletes;
  (* Pass 2: route every insert to its target slot (cluster position). *)
  let ins : (int, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let fresh_inserts = ref [] in
  List.iter
    (fun row ->
      if Array.length t.dir = 0 then fresh_inserts := row :: !fresh_inserts
      else
        let _, e = dir_range cmp t row in
        let r = bucket ins (max 0 e) in
        r := row :: !r)
    inserts;
  (* Pass 3: rewrite the affected pages. *)
  let writes = ref 0 in
  (* Writes one page of [rows]; its directory entry. *)
  let write_page page rows =
    incr writes;
    Page_store.write store counters ~table:t.name ~page rows ~encode:(encode t);
    { de_page = page; de_nrows = List.length rows; de_first = List.hd rows }
  in
  (* Cuts [rows] into full pages, the first on [first] if given. *)
  let write_pages ?first rows =
    Codec.pack_pages ~format:store.codec ~capacity:store.capacity ~fill:1.0
      rows
    |> List.mapi (fun k rows ->
           let page =
             match first with
             | Some page when k = 0 -> page
             | _ -> store.alloc ()
           in
           write_page page rows)
  in
  let affected =
    let keys = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) dels;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) ins;
    List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])
  in
  let routed tbl slot =
    match Hashtbl.find_opt tbl slot with Some r -> List.rev !r | None -> []
  in
  (* Replacement directory entries per slot. *)
  let repl : (int, dir_entry list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun slot ->
      let page = t.dir.(slot).de_page in
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
          (load slot) (routed dels slot)
      in
      let ins = List.stable_sort cmp (routed ins slot) in
      (* Merge with inserts placed before equal kept rows. *)
      let rec merge kept ins =
        match (kept, ins) with
        | rows, [] -> rows
        | [], rest -> rest
        | k :: ktl, i :: itl ->
          if cmp i k <= 0 then i :: merge kept itl else k :: merge ktl ins
      in
      Hashtbl.replace repl slot
        (match merge kept ins with
        | [] ->
          Page_store.drop store ~table:t.name ~page;
          []
        | rows when Codec.page_bytes ~format:store.codec rows <= store.capacity
          ->
          [ write_page page rows ]
        | rows ->
          (* Page split: the first chunk keeps the page id, the rest go
             to fresh pages. *)
          write_pages ~first:page rows))
    affected;
  (* Fresh pages when the table was empty. *)
  let tail_entries =
    match !fresh_inserts with
    | [] -> []
    | rows -> write_pages (List.stable_sort cmp (List.rev rows))
  in
  (* Splice the directory. *)
  let spliced = ref [] in
  Array.iteri
    (fun slot e ->
      match Hashtbl.find_opt repl slot with
      | None -> spliced := e :: !spliced
      | Some es -> List.iter (fun e -> spliced := e :: !spliced) es)
    t.dir;
  t.dir <- Array.of_list (List.rev_append !spliced tail_entries);
  !writes

(** Pages occupied by the clustered tuples. *)
let page_count t = Array.length t.dir

(** The clustered page directory, for the catalog writer. *)
let directory t = t.dir

(** Average clustered rows per page: the directory's measured density.
    This is what the cost model prices a page read at — under a
    compressing codec it grows, and scans get cheaper. *)
let avg_page_rows t =
  let pages = Array.length t.dir in
  if pages = 0 then 64 else max 1 ((cardinality t + pages - 1) / pages)

(** [drop t] frees every data page (the table must not be used
    afterwards). *)
let drop t =
  Array.iter
    (fun e -> Page_store.drop t.store ~table:t.name ~page:e.de_page)
    t.dir
