(** Binary codecs for values, tuples and data pages.

    Disk-backed tables store their clustered tuple runs as page
    payloads; this module defines the two representations and the one
    packer per representation that the bulk loader and page splits
    share ({!pack_pages}).

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

    {b One pricing per row.}  A v2 page is built by one {!v2} builder
    as rows append: each row is priced once under every strategy of
    every column (int values without building their payload or boxing
    a dictionary key), the page is cut at the first row that would
    overflow, and its blocks are written from the same running state —
    the dictionary's entries and runs, or a pass over the rows for
    int-delta and raw.  {!pack_pages}, {!encode_page} and {!page_bytes}
    all run that builder; nothing prices a v2 page a second time.

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

(* Bytes of a LEB128 varint (1 for a negative [n]). *)
let[@inline] varint_bytes n =
  if n < 0x80 then 1
  else if n < 0x4000 then 2
  else if n < 0x20_0000 then 3
  else if n < 0x1000_0000 then 4
  else
    let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
    go (n lsr 28) 5

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
(* v2 pages: the one-pass builder                                      *)

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

(* A dictionary entry is its value's tag and {e payload}, the value's
   v1 body: nothing for Null, the varint of [n] (tag 1) or [-n-1]
   (tag 2) for an int, the bytes of a string (tag 4).  Entries are
   front-coded against the previous entry's payload, which the builder
   reads in place, byte by byte, without building it. *)
let value_tag = function
  | Value.Null -> 0
  | Value.Int n when n >= 0 -> 1
  | Value.Int _ -> 2
  | Value.Str _ -> 4

let payload_len (v : Value.t) =
  match v with
  | Null -> 0
  | Int n -> varint_bytes (if n >= 0 then n else -n - 1)
  | Str s -> String.length s

(* Byte [k] of the payload ([k < payload_len v]). *)
let payload_byte (v : Value.t) k =
  match v with
  | Int n ->
      let rest = (if n >= 0 then n else -n - 1) lsr (7 * k) in
      if rest >= 0x80 then 0x80 lor (rest land 0x7f) else rest
  | Str s -> Char.code (String.unsafe_get s k)
  | Null -> invalid_arg "Codec.payload_byte: empty payload"

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

(* The length of the prefix two entries' payloads share. *)
let payload_shared (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Str x, Str y -> shared_prefix x y
  | _ ->
      let n = min (payload_len a) (payload_len b) in
      let i = ref 0 in
      while !i < n && payload_byte a !i = payload_byte b !i do
        incr i
      done;
      !i

(* One page's int values -> dictionary index: open addressing over
   unboxed arrays, emptied in O(1) by moving to a new generation, so an
   int dictionary neither boxes nor hashes a [Value.t]. *)
type int_index = {
  mutable keys : int array;
  mutable at : int array;  (** the key's dictionary index *)
  mutable gens : int array;  (** a slot is live when it holds [gen] *)
  mutable gen : int;
  mutable live : int;
}

let int_index () =
  { keys = Array.make 64 0; at = Array.make 64 0; gens = Array.make 64 0; gen = 1; live = 0 }

(* [k]'s slot, or the empty slot its probe ends on. *)
let int_slot t k =
  let mask = Array.length t.keys - 1 in
  let h = k * 0x2545F4914F6CDD1D in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while t.gens.(!i) = t.gen && t.keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let int_put t i k at =
  t.gens.(i) <- t.gen;
  t.keys.(i) <- k;
  t.at.(i) <- at;
  t.live <- t.live + 1

(* [k]'s index, or [next] once recorded as [k]'s. *)
let int_index_of t k next =
  if 2 * (t.live + 1) > Array.length t.keys then begin
    let { keys; at; gens; gen; _ } = t in
    let n = 2 * Array.length keys in
    t.keys <- Array.make n 0;
    t.at <- Array.make n 0;
    t.gens <- Array.make n 0;
    t.live <- 0;
    Array.iteri
      (fun i g -> if g = gen then int_put t (int_slot t keys.(i)) keys.(i) at.(i))
      gens
  end;
  let i = int_slot t k in
  if t.gens.(i) = t.gen then t.at.(i)
  else begin
    int_put t i k next;
    next
  end

(* [a] with room for an element at [n]. *)
let room a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* One column block as the page's rows append: each strategy's running
   size without the strategy byte, and what the dictionary strategy
   writes from — its entries in first-occurrence order (sorted for the
   cluster columns, which is what makes the front coding bite) and its
   (index, run-length) pairs.  [k_*] hold the same at the page's last
   committed row: a page is written from them. *)
type col = {
  mutable delta : int;  (** int-delta bytes; [-1] once it cannot apply *)
  mutable prev : int;
  ints : int_index;
  strs : (string, int) Hashtbl.t;
  mutable null_at : int;  (** Null's dictionary index, [-1] if absent *)
  mutable dict : Value.t array;  (** the first [ndict] are the entries *)
  mutable ndict : int;
  mutable entries : int;  (** front-coded dictionary entry bytes *)
  mutable run_at : int array;  (** each run's dictionary index *)
  mutable run_len : int array;  (** each closed run's length *)
  mutable nruns : int;
  mutable len : int;  (** the open (last) run's length *)
  mutable runs : int;  (** (index, run-length) pair bytes *)
  mutable raw : int;
  mutable st : int;  (** the strategy {!col_pick} chose, and its size *)
  mutable size : int;
  mutable k_ndict : int;
  mutable k_nruns : int;
  mutable k_len : int;
  mutable k_st : int;
  mutable k_size : int;
}

let col () =
  {
    delta = 0;
    prev = 0;
    ints = int_index ();
    strs = Hashtbl.create 16;
    null_at = -1;
    dict = Array.make 16 Value.Null;
    ndict = 0;
    entries = 0;
    run_at = Array.make 16 0;
    run_len = Array.make 16 0;
    nruns = 0;
    len = 0;
    runs = 0;
    raw = 0;
    st = st_raw;
    size = 0;
    k_ndict = 0;
    k_nruns = 0;
    k_len = 0;
    k_st = st_raw;
    k_size = 0;
  }

let col_reset c =
  c.delta <- 0;
  c.prev <- 0;
  c.ints.gen <- c.ints.gen + 1;
  c.ints.live <- 0;
  if Hashtbl.length c.strs > 0 then Hashtbl.clear c.strs;
  c.null_at <- -1;
  c.ndict <- 0;
  c.entries <- 0;
  c.nruns <- 0;
  c.len <- 0;
  c.runs <- 0;
  c.raw <- 0

(* [v]'s dictionary index, adding (and pricing) an entry for a value
   not seen on this page. *)
let dict_index c (v : Value.t) =
  let next = c.ndict in
  let idx =
    match v with
    | Int n -> int_index_of c.ints n next
    | Str s -> (
        match Hashtbl.find c.strs s with
        | i -> i
        | exception Not_found ->
            Hashtbl.add c.strs s next;
            next)
    | Null ->
        if c.null_at < 0 then c.null_at <- next;
        c.null_at
  in
  if idx = next then begin
    let shared = if next = 0 then 0 else payload_shared c.dict.(next - 1) v in
    let suffix = payload_len v - shared in
    c.entries <- c.entries + 1 + varint_bytes shared + varint_bytes suffix + suffix;
    c.dict <- room c.dict next Value.Null;
    c.dict.(next) <- v;
    c.ndict <- next + 1
  end;
  idx

let col_add c (v : Value.t) =
  (if c.delta >= 0 then
     match v with
     | Int n when n > -zz_bound && n < zz_bound ->
         c.delta <- c.delta + varint_bytes (zigzag (n - c.prev));
         c.prev <- n
     | _ -> c.delta <- -1);
  let r = c.nruns - 1 in
  if r >= 0 && Value.equal v c.dict.(c.run_at.(r)) then begin
    c.runs <- c.runs + varint_bytes (c.len + 1) - varint_bytes c.len;
    c.len <- c.len + 1
  end
  else begin
    let idx = dict_index c v in
    if r >= 0 then c.run_len.(r) <- c.len;
    c.run_at <- room c.run_at (r + 1) 0;
    c.run_len <- room c.run_len (r + 1) 0;
    c.run_at.(r + 1) <- idx;
    c.nruns <- r + 2;
    c.runs <- c.runs + varint_bytes idx + 1;
    c.len <- 1
  end;
  c.raw <- c.raw + value_bytes v

(* The smallest applicable strategy and its size; ties break toward
   int-delta, then dict, so the choice is deterministic. *)
let col_pick c =
  let dict = varint_bytes c.ndict + c.entries + varint_bytes c.nruns + c.runs in
  if c.delta >= 0 && c.delta <= dict && c.delta <= c.raw then begin
    c.st <- st_int_delta;
    c.size <- c.delta
  end
  else if dict <= c.raw then begin
    c.st <- st_dict;
    c.size <- dict
  end
  else begin
    c.st <- st_raw;
    c.size <- c.raw
  end

let col_commit c =
  c.k_ndict <- c.ndict;
  c.k_nruns <- c.nruns;
  c.k_len <- c.len;
  c.k_st <- c.st;
  c.k_size <- c.size

(* Column [i]'s block of the committed [rows], in the strategy priced
   smallest: the rows' deltas or v1 values, or the dictionary and runs
   as priced. *)
let write_block buf c i rows =
  Wire.write_u8 buf c.k_st;
  if c.k_st = st_int_delta then begin
    let prev = ref 0 in
    List.iter
      (fun t ->
        let n = Value.to_int (Tuple.get t i) in
        Wire.write_varint buf (zigzag (n - !prev));
        prev := n)
      rows
  end
  else if c.k_st = st_dict then begin
    Wire.write_varint buf c.k_ndict;
    for e = 0 to c.k_ndict - 1 do
      let v = c.dict.(e) in
      let shared = if e = 0 then 0 else payload_shared c.dict.(e - 1) v in
      let suffix = payload_len v - shared in
      Wire.write_u8 buf (value_tag v);
      Wire.write_varint buf shared;
      Wire.write_varint buf suffix;
      match v with
      | Str s -> Buffer.add_substring buf s shared suffix
      | _ ->
          for k = shared to shared + suffix - 1 do
            Buffer.add_char buf (Char.unsafe_chr (payload_byte v k))
          done
    done;
    Wire.write_varint buf c.k_nruns;
    for r = 0 to c.k_nruns - 1 do
      Wire.write_varint buf c.run_at.(r);
      Wire.write_varint buf (if r = c.k_nruns - 1 then c.k_len else c.run_len.(r))
    done
  end
  else List.iter (fun t -> add_value buf (Tuple.get t i)) rows

(** The v2 page builder: one page's columns as its rows append, every
    strategy of every column priced once per row ({!v2_add}, which
    returns the page's exact size), and the page is written from the
    same state ({!v2_write}), so no row is priced twice.  Every
    strategy's size grows with each row and int-delta can only drop
    out, so the page size is monotone in the row count. *)
type v2 = {
  cols : col array;
  mutable rows : Tuple.t list;  (** the committed rows, last first *)
  mutable nrows : int;
  mutable bytes : int;  (** the committed rows' encoded size *)
}

let v2 ncols = { cols = Array.init ncols (fun _ -> col ()); rows = []; nrows = 0; bytes = 0 }

let v2_reset b =
  Array.iter col_reset b.cols;
  b.rows <- [];
  b.nrows <- 0;
  b.bytes <- 0

(** Prices one more row onto the committed ones: the size of the page
    with it.  The row is not committed ({!v2_commit}); until it is, the
    page is still written without it.
    @raise Invalid_argument on an arity other than the page's. *)
let v2_add b t =
  let ncols = Array.length b.cols in
  if Tuple.arity t <> ncols then
    invalid_arg "Codec.encode_page: ragged tuple arities";
  let bytes = ref (varint_bytes (b.nrows + 1) + varint_bytes ncols) in
  for i = 0 to ncols - 1 do
    let c = b.cols.(i) in
    col_add c (Tuple.get t i);
    col_pick c;
    let block = 1 + c.size in
    bytes := !bytes + varint_bytes block + block
  done;
  !bytes

(** Commits the row {!v2_add} last priced, at the size it returned. *)
let v2_commit b t bytes =
  Array.iter col_commit b.cols;
  b.rows <- t :: b.rows;
  b.nrows <- b.nrows + 1;
  b.bytes <- bytes

(** The committed rows in order, and their page payload: the per-page
    directory of block lengths, then the blocks. *)
let v2_write b =
  let rows = List.rev b.rows in
  ( rows,
    fun () ->
      let buf = Buffer.create b.bytes in
      Wire.write_varint buf b.nrows;
      if b.nrows > 0 then begin
        Wire.write_varint buf (Array.length b.cols);
        Array.iter (fun c -> Wire.write_varint buf (1 + c.k_size)) b.cols;
        Array.iteri (fun i c -> write_block buf c i rows) b.cols
      end
      else Wire.write_varint buf 0;
      assert (b.nrows = 0 || Buffer.length buf = b.bytes);
      Buffer.contents buf )

(* One page of every row, uncut. *)
let v2_of_rows = function
  | [] -> v2 0
  | first :: _ as rows ->
      let b = v2 (Tuple.arity first) in
      List.iter (fun t -> v2_commit b t (v2_add b t)) rows;
      b

let encode_page_v2 rows = (snd (v2_write (v2_of_rows rows))) ()

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
    [(tag, payload)] (a dictionary entry: {!value_tag} and the value's
    v1 body) without decoding it; its sign is that of [Value.compare v]. *)
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
    tuples], without encoding it: v1 adds up {!tuple_bytes}, v2 prices
    the rows onto one {!v2} page. *)
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
      | _ -> (v2_of_rows tuples).bytes)

(** Row count of a page payload without decoding it (both layouts lead
    with it). *)
let page_nrows payload = Wire.read_varint (Wire.reader payload)

(* Row-count prefix cost, conservatively. *)
let page_overhead = 5

(* Greedy chunking by v1 tuple size: the v1 packer. *)
let chunk_rows ~capacity ~fill ~page tuples =
  let target =
    max 1 (min (capacity - page_overhead)
             (int_of_float (float_of_int capacity *. fill) - page_overhead))
  in
  let pages = ref [] in
  let cur = ref [] in
  let cur_bytes = ref 0 in
  let flush () =
    match !cur with
    | [] -> ()
    | rev ->
        let rows = List.rev rev in
        pages := page rows (fun () -> encode_page_v1 rows) :: !pages;
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
  List.rev !pages

(* The v2 packer: one {!v2} builder over the rows.  A page closes at
   the first row that would push its encoding past the fill target, so
   each page is the largest prefix whose real encoding fits (the size
   is monotone in the row count), and it is written from the state that
   priced it, without that row.  At least one row per page regardless,
   matching the v1 greedy. *)
let pack_rows_v2 ~capacity ~fill ~page tuples =
  let lim =
    max 1 (min capacity (int_of_float (float_of_int capacity *. fill)))
  in
  match tuples with
  | [] -> []
  | first :: _ ->
      let b = v2 (Tuple.arity first) in
      let pages = ref [] in
      let close () =
        let rows, encode = v2_write b in
        pages := page rows encode :: !pages;
        v2_reset b
      in
      let open_page t =
        let bytes = v2_add b t in
        if bytes > capacity then
          invalid_arg
            (Printf.sprintf
               "Codec.pack_pages: tuple run of %d bytes exceeds page capacity %d (v2)"
               bytes capacity);
        v2_commit b t bytes
      in
      List.iter
        (fun t ->
          if b.nrows = 0 then open_page t
          else
            let bytes = v2_add b t in
            if bytes <= lim then v2_commit b t bytes
            else begin
              close ();
              open_page t
            end)
        tuples;
      close ();
      List.rev !pages

(** [pack_pages ~format ~capacity ~fill ~page tuples] cuts the (already
    clustered) tuples into pages whose payloads take at most [capacity
    * fill] bytes — at least one tuple per page regardless, so an
    oversized fill target cannot stall — and returns [page rows encode]
    for each page in order: its rows, and a function that writes its
    payload, valid only during that call.  v1 cuts greedily by
    {!tuple_bytes}; v2 cuts greedily by the exact compressed page size,
    kept as rows append, so pages fill to the target no matter how
    small the rows compress, and it writes a page from the state that
    priced it.  Neither encodes a page unless [encode] is called.
    @raise Invalid_argument if a single tuple exceeds [capacity], or
    (v2) if the tuples' arities differ. *)
let pack_pages ?(format = V1) ~capacity ~fill ~page tuples =
  match format with
  | V1 -> chunk_rows ~capacity ~fill ~page tuples
  | V2 -> pack_rows_v2 ~capacity ~fill ~page tuples
