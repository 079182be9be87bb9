(** Disk-backed secondary index: a two-level B+-tree.

    The leaf level lives on disk pages; each leaf holds sorted
    [(value, data_page, nrows)] entries — "rows with this column value
    sit on that data page, [nrows] of them".  The root level is the
    resident [meta] directory: one routing entry per leaf (page id,
    entry count, total rows, first value), kept in memory like a real
    B+-tree's root/interior nodes would be after first touch.

    Lookups binary-search the directory, read only the leaves whose
    value range intersects the probe (through the shared buffer pool,
    charging page traffic to the run's counters), and return candidate
    {e data} pages; the table layer then fetches those pages and
    selects exactly.  A v2 leaf is probed on its encoded value column
    ({!Codec.select_ints}), so a probe builds no index value.

    v1 leaf payload layout: [varint nentries] then per entry
    [value][varint data_page][varint nrows], sorted by (value, page).
    Under the v2 codec a leaf is a {!Codec} columnar page of
    (value, data_page, nrows) rows — front-coded value dictionary,
    delta-compressed page ids and row counts — so secondary indexes
    shrink with the same machinery as the data pages.

    Duplicate values may span adjacent leaves, so a range probe starts
    one leaf before the first directory entry ≥ lo. *)

module Wire = Blas_disk.Wire

type meta = {
  m_page : int;  (** file page holding the leaf *)
  m_entries : int;
  m_rows : int;  (** sum of nrows over the leaf's entries *)
  m_first : Value.t;
}

type entry = Value.t * int * int  (** value, data page, nrows *)

type t = {
  x_name : string;  (** buffer-pool namespace, e.g. "sp.plabel" *)
  x_store : Page_store.t;
  mutable x_leaves : meta array;  (** sorted by [m_first] *)
}

let entry_cmp (v1, p1, _) (v2, p2, _) =
  let c = Value.compare v1 v2 in
  if c <> 0 then c else Int.compare p1 p2

let row_of_entry (v, page, nrows) =
  Tuple.of_list [ v; Value.Int page; Value.Int nrows ]

let entry_of_row t =
  match (Tuple.get t 0, Tuple.get t 1, Tuple.get t 2) with
  | v, Value.Int page, Value.Int nrows -> (v, page, nrows)
  | _ -> failwith "Paged_index: malformed v2 leaf row"

let encode_leaf ?(format = Codec.V1) entries =
  match format with
  | Codec.V2 -> Codec.encode_page ~format (List.map row_of_entry entries)
  | Codec.V1 ->
      let buf = Buffer.create 512 in
      Wire.write_varint buf (List.length entries);
      List.iter
        (fun (v, page, nrows) ->
          Codec.add_value buf v;
          Wire.write_varint buf page;
          Wire.write_varint buf nrows)
        entries;
      Buffer.contents buf

let decode_leaf ?(format = Codec.V1) payload =
  match format with
  | Codec.V2 -> List.map entry_of_row (Codec.decode_page ~format payload)
  | Codec.V1 ->
      let r = Wire.reader payload in
      let n = Wire.read_varint r in
      List.init n (fun _ ->
          let v = Codec.read_value r in
          let page = Wire.read_varint r in
          let nrows = Wire.read_varint r in
          (v, page, nrows))

(* Encoded v1 size of one leaf entry. *)
let entry_bytes (v, page, nrows) =
  Codec.value_bytes v + Codec.varint_bytes page + Codec.varint_bytes nrows

(* The size of [encode_leaf ~format entries]; v1 adds it up. *)
let leaf_bytes ~format entries =
  match format with
  | Codec.V2 -> Codec.page_bytes ~format (List.map row_of_entry entries)
  | Codec.V1 ->
      List.fold_left
        (fun acc e -> acc + entry_bytes e)
        (Codec.varint_bytes (List.length entries))
        entries

let meta_of ~page entries =
  match entries with
  | [] -> invalid_arg "Paged_index: empty leaf"
  | (first, _, _) :: _ ->
      {
        m_page = page;
        m_entries = List.length entries;
        m_rows = List.fold_left (fun acc (_, _, n) -> acc + n) 0 entries;
        m_first = first;
      }

(* Greedy packer: splits a sorted entry list into leaves whose payloads
   take at most [capacity *. fill] bytes (at least one entry per leaf).
   v2 delegates to the columnar page packer. *)
let pack ~format ~capacity ~fill entries =
  match format with
  | Codec.V2 ->
      Codec.pack_pages ~format ~capacity ~fill (List.map row_of_entry entries)
      |> List.map (List.map entry_of_row)
  | Codec.V1 ->
  let target =
    max 1 (int_of_float (float_of_int capacity *. fill) - 5)
  in
  let chunks = ref [] and cur = ref [] and cur_bytes = ref 0 in
  let flush () =
    match !cur with
    | [] -> ()
    | rev ->
        chunks := List.rev rev :: !chunks;
        cur := [];
        cur_bytes := 0
  in
  List.iter
    (fun e ->
      (* an entry alone in a leaf: one count byte plus the entry *)
      let sz = 1 + entry_bytes e in
      if sz + 5 > capacity then
        invalid_arg "Paged_index.pack: entry exceeds page capacity";
      if !cur <> [] && !cur_bytes + sz > target then flush ();
      cur := e :: !cur;
      cur_bytes := !cur_bytes + sz)
    entries;
  flush ();
  List.rev !chunks

let create ~store ~name ~leaves = { x_name = name; x_store = store; x_leaves = leaves }

let layout t = t.x_leaves
let leaf_count t = Array.length t.x_leaves

(** Total rows the index covers (directory sums; no I/O). *)
let total_rows t =
  Array.fold_left (fun acc m -> acc + m.m_rows) 0 t.x_leaves

(* Writes one leaf as dirty through the pool (charged); its meta.  Only
   a store of rows gets the entries as rows; a store of bytes gets
   them encoded straight from the entries. *)
let write_leaf t counters ~page entries =
  let format = t.x_store.Page_store.codec in
  let rows =
    if Buffer_pool.holds_rows t.x_store.Page_store.pool then List.map row_of_entry entries
    else []
  in
  Page_store.write t.x_store counters ~table:t.x_name ~page rows
    ~encode:(fun _ -> encode_leaf ~format entries);
  meta_of ~page entries

(* Bulk load: packs the sorted [entries] into fresh leaves written
   straight to the page store; the leaf directory. *)
let load ~store ~name ~fill entries =
  let format = store.Page_store.codec in
  pack ~format ~capacity:store.Page_store.capacity ~fill entries
  |> List.map (fun es ->
         let page =
           Page_store.fresh store ~table:name (List.map row_of_entry es)
             ~encode:(fun _ -> encode_leaf ~format es)
         in
         meta_of ~page es)
  |> Array.of_list

(* A leaf's entries from its pool payload. *)
let entries_of t = function
  | Buffer_pool.Rows rows -> List.map entry_of_row rows
  | Buffer_pool.Bytes payload ->
      decode_leaf ~format:t.x_store.Page_store.codec payload

(* Reads one leaf through the pool, charging the request (and a miss)
   to [counters]. *)
let read_leaf t counters (m : meta) =
  entries_of t
    (Page_store.read t.x_store counters ~table:t.x_name ~page:m.m_page)

(* The data pages of one leaf's entries with a value in [lo, hi], in
   entry order, read like {!read_leaf}.  A v2 leaf selects on its
   encoded value column and reads only the page column of the hits, so
   the probe builds no {!Value.t}. *)
let leaf_pages t counters (m : meta) ~lo ~hi =
  match Page_store.read t.x_store counters ~table:t.x_name ~page:m.m_page with
  | Buffer_pool.Bytes payload when t.x_store.Page_store.codec = Codec.V2 ->
      Array.to_list (Codec.select_ints payload ~col:0 ~lo ~hi ~out:1)
  | payload ->
      List.filter_map
        (fun (v, page, _) ->
          if Codec.in_range ~lo ~hi v then Some page else None)
        (entries_of t payload)

(* First directory index whose first value is >= v ([> v] when
   [strict]); [Array.length] when none. *)
let search t v ~strict =
  let lo = ref 0 and hi = ref (Array.length t.x_leaves) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Value.compare t.x_leaves.(mid).m_first v in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Directory range [s, e] of leaves that can hold values in [lo, hi]
   ([None] bounds are open); empty when s > e.  Duplicates can spill
   across a leaf boundary, so the start backs up one leaf; the end is
   the last leaf whose first value is <= hi. *)
let leaf_range t ~lo ~hi =
  let n = Array.length t.x_leaves in
  let s = match lo with None -> 0 | Some v -> max 0 (search t v ~strict:false - 1) in
  let e = match hi with None -> n - 1 | Some v -> search t v ~strict:true - 1 in
  (s, e)

(** Candidate data pages for [lo <= column <= hi], deduped, in leaf
    (value) order; charges one page request (and read on miss) per leaf
    touched.  One directory descent = one index seek, charged by the
    caller. *)
let lookup_pages t counters ~lo ~hi =
  let s, e = leaf_range t ~lo ~hi in
  let seen = Hashtbl.create 16 in
  let pages = ref [] in
  for i = s to e do
    if i >= 0 then
      List.iter
        (fun page ->
          if not (Hashtbl.mem seen page) then begin
            Hashtbl.replace seen page ();
            pages := page :: !pages
          end)
        (leaf_pages t counters t.x_leaves.(i) ~lo ~hi)
  done;
  List.rev !pages

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)

(* [deltas] sorted by (value, page), duplicates summed, zeros dropped. *)
let net deltas =
  let rec merge = function
    | (v, p, d1) :: (v', p', d2) :: rest when entry_cmp (v, p, 0) (v', p', 0) = 0 ->
      merge ((v, p, d1 + d2) :: rest)
    | (_, _, 0) :: rest -> merge rest
    | e :: rest -> e :: merge rest
    | [] -> []
  in
  merge (List.stable_sort entry_cmp deltas)

(* Whether the sorted leaf [entries] holds (v, p). *)
let holds entries v p =
  let key = (v, p, 0) in
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if entry_cmp entries.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length entries && entry_cmp entries.(!lo) key = 0

(* One linear merge of a leaf's sorted [entries] with its sorted net
   [deltas]: counts add, entries reaching zero go, new pairs come in. *)
let merge_leaf entries deltas =
  let n = Array.length entries in
  let out = ref [] and k = ref 0 in
  List.iter
    (fun ((_, _, d) as delta) ->
      while !k < n && entry_cmp entries.(!k) delta < 0 do
        out := entries.(!k) :: !out;
        incr k
      done;
      if !k < n && entry_cmp entries.(!k) delta = 0 then begin
        let v, p, c = entries.(!k) in
        incr k;
        if c + d < 0 then invalid_arg "Paged_index.apply: negative row count"
        else if c + d > 0 then out := (v, p, c + d) :: !out
      end
      else if d < 0 then invalid_arg "Paged_index.apply: delete of missing entry"
      else out := delta :: !out)
    deltas;
  let rest = ref [] in
  for i = n - 1 downto !k do
    rest := entries.(i) :: !rest
  done;
  List.rev_append !out !rest

(** [apply t counters deltas] adjusts entry row counts by [(value,
    data_page, delta)]: positive deltas add rows (creating entries),
    negative remove (dropping entries that reach zero).  Deltas on the
    same pair are summed first.  Each delta goes to the leaf already
    holding its pair, else to the last leaf that can hold its value;
    every leaf involved is decoded once and each touched leaf merged
    with its deltas in one pass, then rewritten through the pool
    (splitting on overflow, freed when empty).  Charges page traffic
    like any writer.
    @raise Invalid_argument on a negative count or a delete of a
    missing entry, before anything is written. *)
let apply t counters deltas =
  match net deltas with
  | [] -> ()
  | deltas when Array.length t.x_leaves = 0 ->
    (* Fresh index: everything is an insert. *)
    List.iter
      (fun (_, _, d) ->
        if d < 0 then invalid_arg "Paged_index.apply: delete from empty index")
      deltas;
    let store = t.x_store in
    t.x_leaves <-
      pack ~format:store.codec ~capacity:store.capacity ~fill:1.0 deltas
      |> List.map (fun entries -> write_leaf t counters ~page:(store.alloc ()) entries)
      |> Array.of_list
  | deltas ->
    let n = Array.length t.x_leaves in
    let decoded = Array.make n None in
    let leaf i =
      match decoded.(i) with
      | Some entries -> entries
      | None ->
        let entries = Array.of_list (read_leaf t counters t.x_leaves.(i)) in
        decoded.(i) <- Some entries;
        entries
    in
    (* Route: deltas arrive sorted, so each leaf's list ends up sorted
       once reversed. *)
    let routed = Array.make n [] in
    List.iter
      (fun ((v, p, _) as delta) ->
        let s, e = leaf_range t ~lo:(Some v) ~hi:(Some v) in
        let e = max 0 e in
        let rec holder i =
          if i > e then e else if holds (leaf i) v p then i else holder (i + 1)
        in
        let i = holder s in
        routed.(i) <- delta :: routed.(i))
      deltas;
    (* Every merge (and so every check) before the first write. *)
    let merged = ref [] in
    for i = n - 1 downto 0 do
      match routed.(i) with
      | [] -> ()
      | ds -> merged := (i, merge_leaf (leaf i) (List.rev ds)) :: !merged
    done;
    let store = t.x_store in
    let repl = Hashtbl.create 8 in
    List.iter
      (fun (i, entries) ->
        let m = t.x_leaves.(i) in
        Hashtbl.replace repl i
          (match entries with
          | [] ->
            Page_store.drop store ~table:t.x_name ~page:m.m_page;
            []
          | entries when leaf_bytes ~format:store.codec entries <= store.capacity ->
            [ write_leaf t counters ~page:m.m_page entries ]
          | entries ->
            (* Split: the first chunk keeps the page, the rest get
               fresh pages. *)
            pack ~format:store.codec ~capacity:store.capacity ~fill:1.0 entries
            |> List.mapi (fun k es ->
                   let page = if k = 0 then m.m_page else store.alloc () in
                   write_leaf t counters ~page es)))
      !merged;
    let out = ref [] in
    Array.iteri
      (fun i m ->
        match Hashtbl.find_opt repl i with
        | None -> out := m :: !out
        | Some ms -> List.iter (fun m -> out := m :: !out) ms)
      t.x_leaves;
    t.x_leaves <- Array.of_list (List.rev !out)

(** [drop t] frees every leaf (the index must not be used afterwards). *)
let drop t =
  Array.iter
    (fun m -> Page_store.drop t.x_store ~table:t.x_name ~page:m.m_page)
    t.x_leaves
