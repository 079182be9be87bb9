(** Binary codecs for values, tuples and data pages.

    Disk-backed tables store their clustered tuple runs as page
    payloads; this module defines the two representations and the
    packers the bulk loader and page splits share.

    {b v1 — row-major.}  Value encoding (one tag byte, then):
    - [0] NULL — nothing
    - [1] non-negative int — varint
    - [2] negative int — varint of [-n-1]
    - [4] string — length-prefixed bytes

    (Tag [3] held the decimal P-labels of catalogs before v6; SP pages
    of such a file are relabeled, never read.)

    A tuple is its arity (varint) followed by its values; a data page
    payload is a row count (varint) followed by that many tuples.

    {b v2 — columnar, delta/dictionary compressed.}  The page payload
    is [varint nrows][varint ncols], a {e per-page directory} of
    column-block byte lengths (one varint per column, so a reader can
    locate and decode a single column without touching the others),
    then the blocks back to back.  Each block opens with a strategy
    byte:
    - [0] {e int-delta}: zigzag varints of the difference against the
      previous row.  Cluster order sorts the D-label [start] column, so
      deltas are tiny — a handful of bits per label instead of a fixed
      tuple slot (the compact-ancestry-labeling observation of
      Dahlgaard et al. / Fraigniaud–Korman applied to pages).
    - [1] {e dict+RLE}: a front-coded dictionary of the distinct values
      in first-occurrence order (cluster order keeps the P-label /
      [tag] column sorted, so consecutive entries share long prefixes)
      followed by (index, run-length) pairs.
    - [2] {e raw}: per-row v1 values — the fallback for incompressible
      columns (e.g. distinct PCDATA).
    The encoder prices every applicable strategy and keeps the
    smallest, so the choice is deterministic and self-describing.

    {b Reads.}  {!select} returns the rows of a page whose key column
    lies in an inclusive range.  Under v2 it decides on the encoded key
    block without building a value: each bound is compared against the
    encoded form [(tag, payload)] in {!Value.compare}'s order — Null <
    Int < Str; ints by value, strings by bytes.  A dict+RLE block tests
    each dictionary entry once and walks the runs, int-delta keeps an
    unboxed running sum, raw reads values in place.  Only the columns the caller asks for are then read, and
    only at the passing rows: int-delta boxes only the hits, a
    dictionary converts only the entries the hits reference, raw skips
    the failing values without allocating.  v1 tests the key in place
    the same way and skips every value it does not return.
    {!decode_page} is {!select} without bounds, every column.

    Both formats decode to exactly the tuples that were encoded —
    queries cannot tell the codecs apart except through the page
    counters.  Pages are CRC-framed by the pager below us, so decode
    errors here mean a software bug, not disk corruption — they surface
    as {!Blas_disk.Wire.Truncated} or [Failure]. *)

module Wire = Blas_disk.Wire

(** The pluggable page representation.  [V1] is the fixed row-major
    layout every pre-codec database file uses; [V2] is the compact
    columnar layout.  A table's format is recorded in the database
    catalog at [index] time and fixed for the life of the file. *)
type format = V1 | V2

let format_id = function V1 -> 1 | V2 -> 2

let format_of_id = function
  | 1 -> V1
  | 2 -> V2
  | id -> failwith (Printf.sprintf "Codec.format_of_id: unknown codec %d" id)

let format_name = function V1 -> "v1" | V2 -> "v2"

let format_of_name = function
  | "v1" -> Some V1
  | "v2" | "compact" -> Some V2
  | _ -> None

(* BLAS_TEST_COMPACT=1 makes the compact codec the default everywhere a
   caller does not pin one — the CI lever that reroutes whole existing
   suites through the v2 layout, like BLAS_TEST_DISK does for the disk
   engine. *)
let default_format =
  match Sys.getenv_opt "BLAS_TEST_COMPACT" with
  | None | Some "" | Some "0" -> V1
  | Some _ -> V2

let add_value buf v =
  match (v : Value.t) with
  | Null -> Wire.write_u8 buf 0
  | Int n when n >= 0 ->
      Wire.write_u8 buf 1;
      Wire.write_varint buf n
  | Int n ->
      Wire.write_u8 buf 2;
      Wire.write_varint buf (-n - 1)
  | Str s ->
      Wire.write_u8 buf 4;
      Wire.write_string buf s

let read_value r : Value.t =
  match Wire.read_u8 r with
  | 0 -> Null
  | 1 -> Int (Wire.read_varint r)
  | 2 -> Int (-Wire.read_varint r - 1)
  | 4 -> Str (Wire.read_string r)
  | tag -> failwith (Printf.sprintf "Codec.read_value: unknown tag %d" tag)

let add_tuple buf t =
  let n = Tuple.arity t in
  Wire.write_varint buf n;
  for i = 0 to n - 1 do
    add_value buf (Tuple.get t i)
  done

let read_tuple r =
  let n = Wire.read_varint r in
  Tuple.of_list (List.init n (fun _ -> read_value r))

let encode_value v =
  let buf = Buffer.create 16 in
  add_value buf v;
  Buffer.contents buf

let encode_tuple t =
  let buf = Buffer.create 32 in
  add_tuple buf t;
  Buffer.contents buf

(* Bytes of a LEB128 varint. *)
let varint_bytes n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let string_bytes s = varint_bytes (String.length s) + String.length s

(** Encoded v1 size of one value in bytes, without encoding it. *)
let value_bytes (v : Value.t) =
  1
  +
  match v with
  | Null -> 0
  | Int n when n >= 0 -> varint_bytes n
  | Int n -> varint_bytes (-n - 1)
  | Str s -> string_bytes s

(** Encoded v1 size of one tuple in bytes (the v1 packer's
    currency). *)
let tuple_bytes t =
  let n = Tuple.arity t in
  let acc = ref (varint_bytes n) in
  for i = 0 to n - 1 do
    acc := !acc + value_bytes (Tuple.get t i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* v1 pages: row-major                                                 *)

let encode_page_v1 tuples =
  let buf = Buffer.create 512 in
  Wire.write_varint buf (List.length tuples);
  List.iter (add_tuple buf) tuples;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* v2 pages: columnar                                                  *)

(* Strategy tags. *)
let st_int_delta = 0
let st_dict = 1
let st_raw = 2

(* Zigzag keeps deltas single-varint small in both directions.  Values
   are bounded so that neither 2|v| nor 2|delta| can overflow a native
   int; labels, page ids and row counts sit far below the bound. *)
let zz_bound = 1 lsl 59

let zigzag n = if n >= 0 then n lsl 1 else (((-n) - 1) lsl 1) lor 1

let unzigzag z = if z land 1 = 0 then z lsr 1 else -(z lsr 1) - 1

let encode_int_delta values =
  let buf = Buffer.create 128 in
  Wire.write_u8 buf st_int_delta;
  let prev = ref 0 in
  Array.iter
    (fun v ->
      let n = match (v : Value.t) with Int n -> n | _ -> assert false in
      Wire.write_varint buf (zigzag (n - !prev));
      prev := n)
    values;
  Buffer.contents buf

(* The canonical byte string a value front-codes through: dictionary
   entries are (tag, shared-prefix length, suffix) against the previous
   entry's payload. *)
let value_tag = function
  | Value.Null -> 0
  | Value.Int n when n >= 0 -> 1
  | Value.Int _ -> 2
  | Value.Str _ -> 4

let value_payload v =
  match (v : Value.t) with
  | Null -> ""
  | Int n when n >= 0 ->
      let buf = Buffer.create 8 in
      Wire.write_varint buf n;
      Buffer.contents buf
  | Int n ->
      let buf = Buffer.create 8 in
      Wire.write_varint buf (-n - 1);
      Buffer.contents buf
  | Str s -> s

let value_of_tag_payload tag payload : Value.t =
  match tag with
  | 0 -> Null
  | 1 -> Int (Wire.read_varint (Wire.reader payload))
  | 2 -> Int (-Wire.read_varint (Wire.reader payload) - 1)
  | 4 -> Str payload
  | _ -> failwith (Printf.sprintf "Codec: unknown dictionary tag %d" tag)

let shared_prefix a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let encode_dict values =
  let buf = Buffer.create 128 in
  Wire.write_u8 buf st_dict;
  (* Dictionary in first-occurrence order (= sorted for cluster
     columns, which is what makes the front coding bite) and the rows
     as (index, run-length) pairs. *)
  let seen = VH.create 16 in
  let dict = ref [] and ndict = ref 0 in
  let runs = ref [] in
  Array.iter
    (fun v ->
      let idx =
        match VH.find_opt seen v with
        | Some i -> i
        | None ->
            let i = !ndict in
            VH.replace seen v i;
            dict := v :: !dict;
            incr ndict;
            i
      in
      match !runs with
      | (i, len) :: rest when i = idx -> runs := (i, len + 1) :: rest
      | _ -> runs := (idx, 1) :: !runs)
    values;
  let dict = List.rev !dict and runs = List.rev !runs in
  Wire.write_varint buf !ndict;
  let prev = ref "" in
  List.iter
    (fun v ->
      let payload = value_payload v in
      let shared = shared_prefix !prev payload in
      Wire.write_u8 buf (value_tag v);
      Wire.write_varint buf shared;
      Wire.write_string buf
        (String.sub payload shared (String.length payload - shared));
      prev := payload)
    dict;
  Wire.write_varint buf (List.length runs);
  List.iter
    (fun (idx, len) ->
      Wire.write_varint buf idx;
      Wire.write_varint buf len)
    runs;
  Buffer.contents buf

let encode_raw values =
  let buf = Buffer.create 128 in
  Wire.write_u8 buf st_raw;
  Array.iter (add_value buf) values;
  Buffer.contents buf

(* One column block's running size under each strategy, without the
   strategy byte: the bytes [encode_int_delta], [encode_dict] and
   [encode_raw] would write for the values added so far. *)
type col_size = {
  mutable delta : int;  (** int-delta bytes; [-1] once it cannot apply *)
  mutable prev : int;
  seen : (int * int) VH.t;  (** value -> dictionary index, v1 bytes *)
  mutable entries : int;  (** front-coded dictionary entry bytes *)
  mutable last : string;  (** the last entry's payload *)
  mutable nruns : int;
  mutable runs : int;  (** (index, run-length) pair bytes *)
  mutable run_value : Value.t;
  mutable run_len : int;
  mutable run_raw : int;  (** v1 bytes of [run_value] *)
  mutable raw : int;
}

let col_size () =
  {
    delta = 0;
    prev = 0;
    seen = VH.create 16;
    entries = 0;
    last = "";
    nruns = 0;
    runs = 0;
    run_value = Value.Null;
    run_len = 0;
    run_raw = 0;
    raw = 0;
  }

let col_add c v =
  (if c.delta >= 0 then
     match (v : Value.t) with
     | Int n when n > -zz_bound && n < zz_bound ->
         c.delta <- c.delta + varint_bytes (zigzag (n - c.prev));
         c.prev <- n
     | _ -> c.delta <- -1);
  if c.nruns > 0 && Value.equal v c.run_value then begin
    c.runs <- c.runs + varint_bytes (c.run_len + 1) - varint_bytes c.run_len;
    c.run_len <- c.run_len + 1
  end
  else begin
    let idx, bytes =
      match VH.find_opt c.seen v with
      | Some e -> e
      | None ->
          let e = (VH.length c.seen, value_bytes v) in
          VH.replace c.seen v e;
          let payload = value_payload v in
          let shared = shared_prefix c.last payload in
          let suffix = String.length payload - shared in
          c.entries <-
            c.entries + 1 + varint_bytes shared + varint_bytes suffix + suffix;
          c.last <- payload;
          e
    in
    c.runs <- c.runs + varint_bytes idx + 1;
    c.nruns <- c.nruns + 1;
    c.run_value <- v;
    c.run_len <- 1;
    c.run_raw <- bytes
  end;
  c.raw <- c.raw + c.run_raw

(* The smallest applicable strategy and its size; ties break toward
   int-delta, then dict, so the choice is deterministic. *)
let col_pick c =
  let dict =
    varint_bytes (VH.length c.seen) + c.entries + varint_bytes c.nruns + c.runs
  in
  if c.delta >= 0 && c.delta <= dict && c.delta <= c.raw then
    (st_int_delta, c.delta)
  else if dict <= c.raw then (st_dict, dict)
  else (st_raw, c.raw)

(* Writes only the strategy {!col_pick} prices smallest. *)
let encode_column values =
  let c = col_size () in
  Array.iter (col_add c) values;
  match fst (col_pick c) with
  | s when s = st_int_delta -> encode_int_delta values
  | s when s = st_dict -> encode_dict values
  | _ -> encode_raw values

let encode_page_v2 tuples =
  let nrows = List.length tuples in
  let buf = Buffer.create 512 in
  Wire.write_varint buf nrows;
  if nrows = 0 then begin
    Wire.write_varint buf 0;
    Buffer.contents buf
  end
  else begin
    let rows = Array.of_list tuples in
    let ncols = Tuple.arity rows.(0) in
    Array.iter
      (fun t ->
        if Tuple.arity t <> ncols then
          invalid_arg "Codec.encode_page: ragged tuple arities")
      rows;
    Wire.write_varint buf ncols;
    let blocks =
      List.init ncols (fun c ->
          encode_column (Array.map (fun t -> Tuple.get t c) rows))
    in
    (* The per-page directory: block lengths up front, so one column is
       addressable without decoding the others. *)
    List.iter (fun b -> Wire.write_varint buf (String.length b)) blocks;
    List.iter (Buffer.add_string buf) blocks;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* The encoded order                                                   *)

(* A select bound as the encoded values see it: its rank in
   {!Value.compare}'s cross-type order (Null < Int < Str) and the key
   it is ordered by within that rank — the int, or the bytes of the
   string. *)
type key = { rank : int; k_int : int; k_str : string }

let key_of_value (v : Value.t) =
  match v with
  | Null -> { rank = 0; k_int = 0; k_str = "" }
  | Int n -> { rank = 1; k_int = n; k_str = "" }
  | Str s -> { rank = 2; k_int = 0; k_str = s }

(* [k] against an encoded value of rank [rank]: the int [n] (rank 1) or
   the bytes [src.[pos .. pos + len - 1]] (rank 2).  Within a rank,
   ints compare as ints and strings by bytes, as [String.compare]
   does. *)
let cmp_key k rank n src pos len =
  if k.rank <> rank then Int.compare k.rank rank
  else if rank = 0 then 0
  else if rank = 1 then Int.compare k.k_int n
  else begin
    let s = k.k_str in
    let ls = String.length s in
    let m = min ls len in
    let i = ref 0 in
    while !i < m && s.[!i] = src.[pos + !i] do
      incr i
    done;
    if !i < m then Char.compare s.[!i] src.[pos + !i] else Int.compare ls len
  end

(* Whether an encoded value (as for {!cmp_key}) lies in [lo, hi]. *)
let within lo hi rank n src pos len =
  (match lo with None -> true | Some k -> cmp_key k rank n src pos len <= 0)
  && match hi with None -> true | Some k -> cmp_key k rank n src pos len >= 0

let tag_rank = function
  | 0 -> 0
  | 1 | 2 -> 1
  | 4 -> 2
  | tag -> failwith (Printf.sprintf "Codec: unknown value tag %d" tag)

(* The int a tag-1 or tag-2 payload (a varint) stands for. *)
let int_of_tag_payload tag payload =
  match tag with
  | 1 -> Wire.read_varint (Wire.reader payload)
  | 2 -> -Wire.read_varint (Wire.reader payload) - 1
  | _ -> failwith "Codec: not an int column"

(* [within] for the value a dictionary entry [(tag, payload)] holds. *)
let entry_within lo hi tag payload =
  match tag with
  | 1 | 2 -> within lo hi 1 (int_of_tag_payload tag payload) "" 0 0
  | _ -> within lo hi (tag_rank tag) 0 payload 0 (String.length payload)

(** [cmp_enc v tag payload] orders [v] against the value encoded as
    [(tag, payload)] (a dictionary entry: {!value_tag}, {!value_payload})
    without decoding it; its sign is that of [Value.compare v]. *)
let cmp_enc v tag payload =
  let k = key_of_value v in
  match tag with
  | 1 | 2 -> cmp_key k 1 (int_of_tag_payload tag payload) "" 0 0
  | _ -> cmp_key k (tag_rank tag) 0 payload 0 (String.length payload)

(* Past one raw (v1) value without allocating. *)
let skip_value (r : Wire.reader) =
  match Wire.read_u8 r with
  | 0 -> ()
  | 1 | 2 -> ignore (Wire.read_varint r)
  | 4 ->
      let len = Wire.read_varint r in
      if len > Wire.remaining r then raise Wire.Truncated;
      r.pos <- r.pos + len
  | tag -> failwith (Printf.sprintf "Codec.read_value: unknown tag %d" tag)

(* Reads one raw (v1) value and tells whether it lies in [lo, hi],
   without allocating. *)
let raw_within lo hi (r : Wire.reader) =
  match Wire.read_u8 r with
  | 0 -> within lo hi 0 0 "" 0 0
  | 1 -> within lo hi 1 (Wire.read_varint r) "" 0 0
  | 2 -> within lo hi 1 (-Wire.read_varint r - 1) "" 0 0
  | 4 ->
      let len = Wire.read_varint r in
      if len > Wire.remaining r then raise Wire.Truncated;
      let pos = r.pos in
      r.pos <- pos + len;
      within lo hi 2 0 r.src pos len
  | tag -> failwith (Printf.sprintf "Codec.read_value: unknown tag %d" tag)

(* ------------------------------------------------------------------ *)
(* v2 reads: select on the encoded columns                             *)

(* A v2 page's row count and the byte offset of each column block,
   from the per-page directory. *)
type view = { src : string; nrows : int; blocks : int array }

let view payload =
  let r = Wire.reader payload in
  let nrows = Wire.read_varint r in
  if nrows = 0 then { src = payload; nrows; blocks = [||] }
  else begin
    let ncols = Wire.read_varint r in
    let lens = Array.init ncols (fun _ -> Wire.read_varint r) in
    let blocks = Array.make ncols 0 in
    let pos = ref r.pos in
    Array.iteri
      (fun c len ->
        blocks.(c) <- !pos;
        pos := !pos + len)
      lens;
    if !pos > String.length payload then raise Wire.Truncated;
    { src = payload; nrows; blocks }
  end

(* Column [c]'s strategy byte and a reader just past it. *)
let block v c =
  let r = { Wire.src = v.src; pos = v.blocks.(c) } in
  let st = Wire.read_u8 r in
  if st <> st_int_delta && st <> st_dict && st <> st_raw then
    failwith (Printf.sprintf "Codec: unknown column strategy %d" st);
  (st, r)

(* A dictionary's entries as (tag, payload), front coding undone. *)
let read_dict r =
  let ndict = Wire.read_varint r in
  let tags = Array.make ndict 0 and payloads = Array.make ndict "" in
  let prev = ref "" in
  for i = 0 to ndict - 1 do
    tags.(i) <- Wire.read_u8 r;
    let shared = Wire.read_varint r in
    let suffix = Wire.read_varint r in
    if shared > String.length !prev || suffix > Wire.remaining r then
      raise Wire.Truncated;
    let b = Bytes.create (shared + suffix) in
    Bytes.blit_string !prev 0 b 0 shared;
    Bytes.blit_string r.src r.pos b shared suffix;
    r.pos <- r.pos + suffix;
    prev := Bytes.unsafe_to_string b;
    payloads.(i) <- !prev
  done;
  (tags, payloads)

(* Walks a dictionary block's (index, run-length) pairs, calling
   [f idx first len] per run until [f] returns [false]; checks that the
   runs cover exactly [n] rows when walked to the end. *)
let iter_runs r n f =
  let nruns = Wire.read_varint r in
  let pos = ref 0 and go = ref true and i = ref 0 in
  while !go && !i < nruns do
    let idx = Wire.read_varint r in
    let len = Wire.read_varint r in
    if !pos + len > n then failwith "Codec: dictionary runs exceed row count";
    go := f idx !pos len;
    pos := !pos + len;
    incr i
  done;
  if !go && !pos <> n then failwith "Codec: dictionary runs short of row count"

(* The rows (ascending) whose column [c] lies in [lo, hi], decided on
   the encoded block — dict+RLE tests each entry once and walks the
   runs, int-delta keeps an unboxed running sum, raw reads values in
   place — as an array whose first [nh] slots hold them, and [nh]. *)
let select_rows v c ~lo ~hi =
  let n = v.nrows in
  let hits = Array.make n 0 and nh = ref 0 in
  let st, r = block v c in
  if st = st_int_delta then begin
    let prev = ref 0 in
    for i = 0 to n - 1 do
      prev := !prev + unzigzag (Wire.read_varint r);
      if within lo hi 1 !prev "" 0 0 then begin
        hits.(!nh) <- i;
        incr nh
      end
    done
  end
  else if st = st_dict then begin
    let tags, payloads = read_dict r in
    let pass = Array.map2 (entry_within lo hi) tags payloads in
    iter_runs r n (fun idx first len ->
        if pass.(idx) then
          for i = first to first + len - 1 do
            hits.(!nh) <- i;
            incr nh
          done;
        true)
  end
  else
    for i = 0 to n - 1 do
      if raw_within lo hi r then begin
        hits.(!nh) <- i;
        incr nh
      end
    done;
  (hits, !nh)

(* Calls [put k x] with column [c]'s value [x] at each of the first
   [nh] rows of [hits] (ascending, [nh > 0]), [k] counting from 0.
   Int-delta boxes only the hits, a dictionary converts only the
   entries the hits reference (each once), raw skips the other values
   without allocating. *)
let column_at v c hits nh ~put =
  let st, r = block v c in
  if st = st_int_delta then begin
    let prev = ref 0 and i = ref 0 and k = ref 0 in
    while !k < nh do
      prev := !prev + unzigzag (Wire.read_varint r);
      if hits.(!k) = !i then begin
        put !k (Value.Int !prev);
        incr k
      end;
      incr i
    done
  end
  else if st = st_dict then begin
    let tags, payloads = read_dict r in
    let made = Array.make (Array.length tags) None in
    let k = ref 0 in
    iter_runs r v.nrows (fun idx first len ->
        while !k < nh && hits.(!k) < first + len do
          let x =
            match made.(idx) with
            | Some x -> x
            | None ->
                let x = value_of_tag_payload tags.(idx) payloads.(idx) in
                made.(idx) <- Some x;
                x
          in
          put !k x;
          incr k
        done;
        !k < nh)
  end
  else begin
    let i = ref 0 and k = ref 0 in
    while !k < nh do
      if hits.(!k) <> !i then skip_value r
      else begin
        (match Wire.read_u8 r with
        | 1 -> put !k (Value.Int (Wire.read_varint r))
        | 2 -> put !k (Value.Int (-Wire.read_varint r - 1))
        | tag ->
            put !k
              (value_of_tag_payload tag
                 (if tag = 0 then "" else Wire.read_string r)));
        incr k
      end;
      incr i
    done
  end

(* The rows selected on column [col] by the key bounds [lo, hi]
   ([None, None]: every row), as {!select_rows} returns them. *)
let hits_of v ~col ~lo ~hi =
  match (lo, hi) with
  | None, None -> (Array.init v.nrows Fun.id, v.nrows)
  | _ ->
      if col < 0 || col >= Array.length v.blocks then
        invalid_arg "Codec.select: no such column";
      select_rows v col ~lo ~hi

(* v2: the hits are decided on the key block, then each requested
   column block is read once, straight into the rows' tuples.  The
   rows are consed onto [onto] first and filled through a second list
   of the same value arrays: a page can hit more than 256 rows, and an
   array of them would be allocated in the major heap and promote
   every one. *)
let select_v2 ~cols ~col ~lo ~hi onto payload =
  let v = view payload in
  if v.nrows = 0 then onto
  else
    let hits, nh = hits_of v ~col ~lo ~hi in
    if nh = 0 then onto
    else begin
      let cols =
        match cols with
        | Some cols -> cols
        | None -> Array.init (Array.length v.blocks) Fun.id
      in
      let m = Array.length cols in
      let values = ref [] and rows = ref onto in
      for _ = 1 to nh do
        let row = Array.make m Value.Null in
        values := row :: !values;
        rows := Tuple.of_array row :: !rows
      done;
      Array.iteri
        (fun j c ->
          let next = ref !values in
          column_at v c hits nh ~put:(fun _ x ->
              match !next with
              | row :: rest ->
                  row.(j) <- x;
                  next := rest
              | [] -> assert false))
        cols;
      !rows
    end

(* ------------------------------------------------------------------ *)
(* v2 page sizing                                                      *)

(** The exact size of a v2 page as rows append ({!v2_add}), read by
    {!v2_bytes}.  Every strategy's size grows with each row and
    int-delta can only drop out, so the page size is monotone in the
    row count. *)
type v2_size = { mutable nrows : int; cols : col_size array }

let v2_size ncols = { nrows = 0; cols = Array.init ncols (fun _ -> col_size ()) }

(** Appends one row.
    @raise Invalid_argument on an arity other than the page's. *)
let v2_add s t =
  if Tuple.arity t <> Array.length s.cols then
    invalid_arg "Codec.encode_page: ragged tuple arities";
  Array.iteri (fun i c -> col_add c (Tuple.get t i)) s.cols;
  s.nrows <- s.nrows + 1

(** [String.length (encode_page_v2 rows)] for the rows added so far
    (at least one). *)
let v2_bytes s =
  Array.fold_left
    (fun acc c ->
      let b = 1 + snd (col_pick c) in
      acc + varint_bytes b + b)
    (varint_bytes s.nrows + varint_bytes (Array.length s.cols))
    s.cols

(* ------------------------------------------------------------------ *)
(* Format dispatch                                                     *)

(** A data page payload for [tuples] under [format] (default v1). *)
let encode_page ?(format = V1) tuples =
  match format with V1 -> encode_page_v1 tuples | V2 -> encode_page_v2 tuples

(** [in_range ~lo ~hi v] — [lo <= v <= hi] under {!Value.compare};
    [None] bounds are open. *)
let in_range ~lo ~hi v =
  (match lo with None -> true | Some l -> Value.compare l v <= 0)
  && match hi with None -> true | Some h -> Value.compare v h <= 0

(** [filter_rows ?cols ?onto ~col ~lo ~hi rows] — {!select} over rows
    already decoded (the in-memory store's pages).  A row is shared,
    not copied, when [cols] keeps every column in place. *)
let filter_rows ?cols ?(onto = []) ~col ~lo ~hi rows =
  let bounded = lo <> None || hi <> None in
  let proj =
    match (cols, rows) with
    | Some cols, first :: _ when not (Tuple.is_identity cols (Tuple.arity first))
      ->
        Some (Tuple.project cols)
    | _ -> None
  in
  match (onto, proj) with
  | [], None when not bounded -> rows
  | _ ->
      List.fold_right
        (fun t acc ->
          if bounded && not (in_range ~lo ~hi (Tuple.get t col)) then acc
          else (match proj with None -> t | Some p -> p t) :: acc)
        rows onto

(* v1: the key is tested in place ({!raw_within}) and a failing row is
   skipped without building a value; a passing row is re-read, building
   only the values of [cols] and skipping the others. *)
let select_v1 ~cols ~col ~lo ~hi =
  (* Page column -> output position ([-1]: not read). *)
  let slot =
    match cols with
    | None -> [||]
    | Some cols ->
        let slot = Array.make (Array.fold_left max (-1) cols + 1) (-1) in
        Array.iteri (fun j c -> slot.(c) <- j) cols;
        slot
  in
  fun onto payload ->
  let r = Wire.reader payload in
  let n = Wire.read_varint r in
  let read_row arity =
    match cols with
    | None ->
        let t = Array.make arity Value.Null in
        for i = 0 to arity - 1 do
          t.(i) <- read_value r
        done;
        t
    | Some cols ->
        if Array.length slot > arity then
          invalid_arg "Codec.select: no such column";
        let t = Array.make (Array.length cols) Value.Null in
        for i = 0 to arity - 1 do
          let j = if i < Array.length slot then slot.(i) else -1 in
          if j >= 0 then t.(j) <- read_value r else skip_value r
        done;
        t
  in
  let rev = ref [] in
  for _ = 1 to n do
    let arity = Wire.read_varint r in
    let values = r.pos in
    let pass =
      (Option.is_none lo && Option.is_none hi)
      ||
      (if col < 0 || col >= arity then
         invalid_arg "Codec.select: no such column";
       for _ = 1 to col do
         skip_value r
       done;
       raw_within lo hi r)
    in
    if pass then begin
      r.pos <- values;
      rev := Tuple.of_array (read_row arity) :: !rev
    end
    else
      for _ = col + 2 to arity do
        skip_value r
      done
  done;
  List.rev_append !rev onto

(** [select ~format ?cols ~col ~lo ~hi ?onto payload] — the rows of a
    page whose column [col] lies in [lo, hi] ([None] bounds are open),
    in page order, prepended to [onto] (default empty).  Each row holds
    the page columns [cols] (distinct positions, in that order; default
    every column).  Both layouts decide on the encoded key and build
    values only for the passing rows and the requested columns: v2
    reads just those column blocks at the hits, v1 tests the key in
    place and skips the values it does not return.  Applied to everything but the
    page, [select] converts the bounds once, for a caller selecting
    from many pages. *)
let select ?(format = V1) ?cols ~col ~lo ~hi =
  let lo = Option.map key_of_value lo and hi = Option.map key_of_value hi in
  let select =
    match format with
    | V1 -> select_v1 ~cols ~col ~lo ~hi
    | V2 -> select_v2 ~cols ~col ~lo ~hi
  in
  fun ?(onto = []) payload -> select onto payload

(** Every row of a page, every column: {!select} with no bounds (the
    edit path's view of a page). *)
let decode_page ?format payload =
  select ?format payload ~col:0 ~lo:None ~hi:None

(** [page_bytes ~format tuples] — the size of [encode_page ~format
    tuples], without encoding it: v1 adds up {!tuple_bytes}, v2 runs
    {!v2_size} over the rows. *)
let page_bytes ?(format = V1) tuples =
  match format with
  | V1 ->
      List.fold_left
        (fun acc t -> acc + tuple_bytes t)
        (varint_bytes (List.length tuples))
        tuples
  | V2 -> (
      match tuples with
      | [] -> String.length (encode_page_v2 [])
      | first :: _ ->
          let size = v2_size (Tuple.arity first) in
          List.iter (v2_add size) tuples;
          v2_bytes size)

(** Row count of a page payload without decoding it (both layouts lead
    with it). *)
let page_nrows payload = Wire.read_varint (Wire.reader payload)

(* Row-count prefix cost, conservatively. *)
let page_overhead = 5

(* Greedy chunking by v1 tuple size: the v1 packer. *)
let chunk_rows ~capacity ~fill tuples =
  let target =
    max 1 (min (capacity - page_overhead)
             (int_of_float (float_of_int capacity *. fill) - page_overhead))
  in
  let chunks = ref [] in
  let cur = ref [] in
  let cur_bytes = ref 0 in
  let flush () =
    match !cur with
    | [] -> ()
    | rev ->
        chunks := List.rev rev :: !chunks;
        cur := [];
        cur_bytes := 0
  in
  List.iter
    (fun t ->
      let sz = tuple_bytes t in
      if sz + page_overhead > capacity then
        invalid_arg
          (Printf.sprintf "Codec.pack_pages: tuple of %d bytes exceeds page capacity %d"
             sz capacity);
      if !cur <> [] && !cur_bytes + sz > target then flush ();
      cur := t :: !cur;
      cur_bytes := !cur_bytes + sz)
    tuples;
  flush ();
  List.rev !chunks

(* v2 packing: one pass over the rows with a running {!v2_size}.  A
   page closes at the first row that would push its encoding past the
   fill target, so each page is the largest prefix whose real encoding
   fits (the size is monotone in the row count), and it is encoded
   once, by the caller.  At least one row per page regardless,
   matching the v1 greedy. *)
let pack_rows_v2 ~capacity ~fill tuples =
  let lim =
    max 1 (min capacity (int_of_float (float_of_int capacity *. fill)))
  in
  match tuples with
  | [] -> []
  | first :: _ ->
      let ncols = Tuple.arity first in
      let size = ref (v2_size ncols) in
      let pages = ref [] and cur = ref [] in
      let open_page t =
        size := v2_size ncols;
        v2_add !size t;
        let b = v2_bytes !size in
        if b > capacity then
          invalid_arg
            (Printf.sprintf
               "Codec.pack_pages: tuple run of %d bytes exceeds page capacity %d (v2)"
               b capacity);
        cur := [ t ]
      in
      List.iter
        (fun t ->
          match !cur with
          | [] -> open_page t
          | rows ->
              v2_add !size t;
              if v2_bytes !size <= lim then cur := t :: rows
              else begin
                pages := List.rev rows :: !pages;
                open_page t
              end)
        tuples;
      List.rev (List.rev !cur :: !pages)

(** [pack_pages ~format ~capacity ~fill tuples] cuts the (already
    clustered) tuples into pages whose payloads take at most [capacity
    * fill] bytes — at least one tuple per page regardless, so an
    oversized fill target cannot stall.  Returns each page's rows in
    order.  v1 cuts greedily by {!tuple_bytes}; v2 cuts greedily by the
    exact compressed page size, kept as rows append, so pages fill to
    the target no matter how small the rows compress.  Neither encodes
    a page.
    @raise Invalid_argument if a single tuple exceeds [capacity], or
    (v2) if the tuples' arities differ. *)
let pack_pages ?(format = V1) ~capacity ~fill tuples =
  match format with
  | V1 -> chunk_rows ~capacity ~fill tuples
  | V2 -> pack_rows_v2 ~capacity ~fill tuples
