(** Tests for the pluggable page codecs (v1 row-major, v2 columnar).

    The load-bearing properties: both formats decode to exactly the
    tuples that were encoded (on adversarial random pages — mixed
    types, negative ints, big integers, NULLs, empty pages); the
    packers partition their input losslessly under every capacity, v2
    cutting each page at the largest prefix that fits; the page
    directory, the tables' only index, answers every lookup on the
    leading cluster-key column from exactly the pages of its run and
    stays equal to a sorted model of its rows under random edits; and
    a v2-codec database stays coherent with an in-memory shadow oracle
    under random edit scripts — the update subsystem re-encodes pages
    through the codec on every WAL'd edit, so this is where a packing
    or delta bug would surface as a wrong query answer. *)

open Test_util
module Codec = Blas_rel.Codec
module Tuple = Blas_rel.Tuple
module Value = Blas_rel.Value
module Table = Blas_rel.Table
module Buffer_pool = Blas_rel.Buffer_pool
module Database = Blas.Database

let formats = [ (Codec.V1, "v1"); (Codec.V2, "v2") ]

(* ------------------------------------------------------------------ *)
(* Unit round-trips: the corners a random generator hits rarely        *)

let tuples_testable =
  Alcotest.testable
    (fun fmt ts ->
      Format.fprintf fmt "%d tuples" (List.length ts))
    (fun a b ->
      List.length a = List.length b
      && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b)

let check_roundtrip name tuples =
  List.iter
    (fun (format, fname) ->
      let enc = Codec.encode_page ~format tuples in
      Alcotest.check tuples_testable
        (Printf.sprintf "%s (%s)" name fname)
        tuples
        (Codec.decode_page ~format enc);
      Alcotest.(check int)
        (Printf.sprintf "%s nrows (%s)" name fname)
        (List.length tuples) (Codec.page_nrows enc))
    formats

let test_corner_pages () =
  check_roundtrip "empty page" [];
  check_roundtrip "single null row" [ Tuple.of_list [ Value.Null ] ];
  check_roundtrip "negative ints"
    [
      Tuple.of_list [ Value.Int (-1); Value.Int min_int ];
      Tuple.of_list [ Value.Int max_int; Value.Int 0 ];
    ];
  check_roundtrip "large labels"
    [
      Tuple.of_list [ Value.Int (1 lsl 61) ];
      Tuple.of_list [ Value.Int (271 * (1 lsl 20)) ];
    ];
  check_roundtrip "mixed arity-4"
    [
      Tuple.of_list
        [ Value.Str ""; Value.Null; Value.Int 7; Value.Str "abba" ];
      Tuple.of_list
        [ Value.Str "ab"; Value.Int (-9); Value.Int 7; Value.Null ];
    ]

(* A select on one column must agree with filtering the whole page:
   point bounds at every value of the column, then open bounds. *)
let test_decode_column () =
  let rows =
    List.init 100 (fun i ->
        Tuple.of_list
          [ Value.Int (3 * i); Value.Str (if i < 50 then "aa" else "ab") ])
  in
  List.iter
    (fun (format, fname) ->
      let enc = Codec.encode_page ~format rows in
      for col = 0 to 1 do
        List.iter
          (fun (lo, hi) ->
            Alcotest.check tuples_testable
              (Printf.sprintf "column %d (%s)" col fname)
              (Codec.filter_rows ~col ~lo ~hi rows)
              (Codec.select ~format enc ~col ~lo ~hi))
          ((None, None)
          :: List.map
               (fun t -> (Some (Tuple.get t col), Some (Tuple.get t col)))
               rows)
      done)
    formats

(* Deterministic compression sanity on label-shaped data: a clustered
   SD run (sorted starts, few tags) must shrink under v2.  This is the
   economics the bench gate measures end to end; here it is pinned as
   a unit fact so a codec regression fails fast without the bench. *)
let test_v2_compresses_labels () =
  let rows =
    List.init 512 (fun i ->
        Tuple.of_list
          [
            Value.Str "speech";
            Value.Int (7 * i);
            Value.Int ((7 * i) + 5);
            Value.Int (3 + (i mod 4));
          ])
  in
  let v1 = String.length (Codec.encode_page ~format:Codec.V1 rows) in
  let v2 = String.length (Codec.encode_page ~format:Codec.V2 rows) in
  Alcotest.(check bool)
    (Printf.sprintf "v2 at most half of v1 on clustered labels (%d vs %d)" v2
       v1)
    true
    (v2 * 2 <= v1)

(* ------------------------------------------------------------------ *)
(* qcheck: random pages round-trip, packers partition losslessly       *)

let value_gen =
  let open QCheck2.Gen in
  frequency
    [
      (1, return Value.Null);
      (4, map (fun n -> Value.Int n) (int_range (-1000) 1000));
      (2, map (fun n -> Value.Int n) int);
      (2, map (fun n -> Value.Int (n lsl 20)) (int_range 0 1_000));
      (2, map (fun s -> Value.Str s) (string_size (int_range 0 12)));
    ]

let page_gen =
  let open QCheck2.Gen in
  let* arity = int_range 1 5 in
  list_size (int_range 0 80) (map Tuple.of_list (list_repeat arity value_gen))

let roundtrip_law format tuples =
  let dec = Codec.decode_page ~format (Codec.encode_page ~format tuples) in
  List.length dec = List.length tuples
  && List.for_all2 (fun a b -> Tuple.compare a b = 0) dec tuples

let pack_law format (tuples, capacity) =
  (* Every tuple must fit a page by itself or pack_pages raises. *)
  let capacity =
    List.fold_left
      (fun cap t -> max cap (Codec.tuple_bytes t + 16))
      capacity tuples
  in
  let pages =
    Codec.pack_pages ~format ~capacity ~fill:0.9 tuples ~page:(fun rows encode ->
        (rows, encode ()))
  in
  let decoded =
    List.concat_map (fun (_, enc) -> Codec.decode_page ~format enc) pages
  in
  (* v2 pages are the largest prefixes whose encodings fit the fill
     target: within it unless alone, and one row more overflows. *)
  let target = int_of_float (float_of_int capacity *. 0.9) in
  let rec largest = function
    | (rows, enc) :: ((next :: _, _) :: _ as rest) ->
        (String.length enc <= target || List.length rows = 1)
        && String.length (Codec.encode_page ~format (rows @ [ next ])) > target
        && largest rest
    | [ (rows, enc) ] -> String.length enc <= target || List.length rows = 1
    | _ -> true
  in
  List.for_all
    (fun (rows, enc) ->
      String.length enc <= capacity
      && Codec.page_bytes ~format rows = String.length enc
      && Codec.encode_page ~format rows = enc
      && Codec.page_nrows enc = List.length rows
      && rows <> [])
    pages
  && (format = Codec.V1 || largest pages)
  && List.length decoded = List.length tuples
  && List.for_all2 (fun a b -> Tuple.compare a b = 0) decoded tuples

(* Cluster-shaped pages: a sorted label column, runs of a few P-label
   bignums and tags, repeated text, a level column in runs long enough
   to widen their length varints — the inputs where int-delta and
   dict+RLE win and a packer's cut points matter most. *)
let clustered_gen =
  let open QCheck2.Gen in
  let* n = int_range 0 600 in
  let* steps = list_repeat n (int_range 0 40) in
  let* runs = list_repeat n (int_range 0 5) in
  let+ texts = list_repeat n (oneofa [| "to be"; "to be or"; "not"; "" |]) in
  let start = ref 0 and plabel = ref 0 in
  List.mapi
    (fun i ((step, run), text) ->
      start := !start + step;
      if run = 0 then plabel := !plabel + 1 + step;
      Tuple.of_list
        [
          Value.Int ((1 lsl 20) * !plabel);
          Value.Int !start;
          Value.Int (!start + run);
          Value.Str (if run < 2 then text else "speech");
          Value.Int (i / 300);
        ])
    (List.combine (List.combine steps runs) texts)

let pack_gen =
  QCheck2.Gen.(pair (oneof [ page_gen; clustered_gen ]) (int_range 64 2048))

(* The v2 builder writes each column in the smallest of its applicable
   strategies, ties toward int-delta, then dict (each strategy written
   by the reference encoder); a wrong running size would pick another
   and change the bytes. *)
let column_law tuples =
  match tuples with
  | [] -> true
  | first :: _ ->
      let page = Codec.encode_page ~format:Codec.V2 tuples in
      let v = Codec.view page in
      let ncols = Tuple.arity first in
      List.for_all
        (fun c ->
          let col = Array.of_list (List.map (fun t -> Tuple.get t c) tuples) in
          let ints =
            Array.for_all
              (function
                | Value.Int n -> n > -Codec.zz_bound && n < Codec.zz_bound
                | _ -> false)
              col
          in
          let candidates =
            (if ints then [ V2_reference.encode_int_delta col ] else [])
            @ [ V2_reference.encode_dict col; V2_reference.encode_raw col ]
          in
          let best =
            List.fold_left
              (fun b x -> if String.length x < String.length b then x else b)
              (List.hd candidates) (List.tl candidates)
          in
          let stop =
            if c + 1 < ncols then v.blocks.(c + 1) else String.length page
          in
          String.sub page v.blocks.(c) (stop - v.blocks.(c)) = best)
        (List.init ncols Fun.id)

(* ------------------------------------------------------------------ *)
(* The one-pass v2 builder against the two-pass reference              *)

(* Rows where the builder's shortcuts could part from the reference:
   ints at the int-delta bound and past it, negative ints (whose
   payloads share bytes with positive ones), Nulls and long runs of one
   value, strings sharing long prefixes (also with an int's payload
   bytes), capacities small enough for one-row pages and for a row too
   large to page at all, and now and then a ragged row. *)
let builder_value_gen =
  let open QCheck2.Gen in
  let prefix = String.make 40 'p' in
  frequency
    [
      (2, return Value.Null);
      (3, map (fun n -> Value.Int n) (int_range (-300) 300));
      ( 2,
        map
          (fun (neg, d) ->
            Value.Int ((if neg then -Codec.zz_bound else Codec.zz_bound) + d))
          (pair bool (int_range (-2) 2)) );
      (1, oneofl [ Value.Int min_int; Value.Int max_int; Value.Int (-1) ]);
      (1, map (fun n -> Value.Int n) int);
      ( 3,
        map
          (fun (n, s) -> Value.Str (String.sub prefix 0 n ^ s))
          (pair (int_range 0 40)
             (string_size ~gen:(oneofa [| 'p'; 'q'; '\x05' |]) (int_range 0 3))) );
      (1, map (fun s -> Value.Str s) (string_size (int_range 0 12)));
    ]

let builder_gen =
  let open QCheck2.Gen in
  let* arity = int_range 1 4 in
  let row = map Tuple.of_list (list_repeat arity builder_value_gen) in
  let* runs =
    list_size (int_range 0 40)
      (pair row (frequency [ (3, return 1); (1, int_range 2 300) ]))
  in
  let* ragged =
    frequency [ (12, return None); (1, map Option.some (pair nat row)) ]
  in
  let* huge = frequency [ (12, return None); (1, map Option.some nat) ] in
  let rows = List.concat_map (fun (r, n) -> List.init n (fun _ -> r)) runs in
  let insert at x rows =
    let at = if rows = [] then 0 else at mod (List.length rows + 1) in
    List.filteri (fun i _ -> i < at) rows
    @ (x :: List.filteri (fun i _ -> i >= at) rows)
  in
  let rows =
    match ragged with
    | Some (at, r) ->
        let longer = Value.Null :: List.init arity (fun i -> Tuple.get r i) in
        insert at (Tuple.of_list longer) rows
    | None -> rows
  in
  let rows =
    match huge with
    | Some at ->
        let big = Value.Str (String.make 3000 'h') in
        insert at (Tuple.of_list (List.init arity (fun _ -> big))) rows
    | None -> rows
  in
  let* capacity = oneof [ int_range 24 120; int_range 120 4096 ] in
  let+ fill = oneofl [ 0.5; 0.9; 1.0 ] in
  (rows, capacity, fill)

let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

let same_pages a b =
  List.length a = List.length b
  && List.for_all2
       (fun (r1, e1) (r2, e2) ->
         String.equal e1 e2
         && List.length r1 = List.length r2
         && List.for_all2 (fun x y -> Tuple.compare x y = 0) r1 r2)
       a b

(* The builder's page cuts and bytes are the reference's: its packer's
   cuts, each encoded afresh — or the same [Invalid_argument]. *)
let builder_law (rows, capacity, fill) =
  let ours =
    outcome (fun () ->
        Codec.pack_pages ~format:Codec.V2 ~capacity ~fill rows ~page:(fun rows encode ->
            (rows, encode ())))
  and theirs =
    outcome (fun () ->
        List.map
          (fun rows -> (rows, V2_reference.encode_page rows))
          (V2_reference.pack ~capacity ~fill rows))
  in
  let whole = outcome (fun () -> Codec.encode_page ~format:Codec.V2 rows)
  and whole_ref = outcome (fun () -> V2_reference.encode_page rows) in
  (match (ours, theirs) with
  | Ok a, Ok b -> same_pages a b
  | Error a, Error b -> String.equal a b
  | _ -> false)
  && whole = whole_ref
  &&
  match whole with
  | Ok enc -> Codec.page_bytes ~format:Codec.V2 rows = String.length enc
  | Error _ -> true

(* The v2 packer refuses what it cannot page: a row larger than a page
   and rows of different arities. *)
let test_v2_pack_rejects () =
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let row s = Tuple.of_list [ Value.Int 1; Value.Str s ] in
  let pack ~capacity rows =
    Codec.pack_pages ~format:Codec.V2 ~capacity ~fill:0.9 rows
      ~page:(fun rows _ -> rows)
  in
  raises "oversized row" (fun () ->
      pack ~capacity:64 [ row "a"; row (String.make 100 'x'); row "b" ]);
  raises "ragged arities" (fun () ->
      pack ~capacity:4096 [ row "a"; Tuple.of_list [ Value.Int 2 ]; row "b" ]);
  raises "ragged arities across pages" (fun () ->
      pack ~capacity:64
        (List.init 40 (fun i -> row (string_of_int i))
        @ [ Tuple.of_list [ Value.Int 2 ] ]))

(* ------------------------------------------------------------------ *)
(* Selecting on encoded columns                                        *)

(* Values at the edges of the encoded order: negative ints, ints near
   the int-delta bound and past it, strings sharing prefixes. *)
let edge_value_gen =
  let open QCheck2.Gen in
  let big = map (fun n -> Value.Int (max_int - n)) (int_range 0 3) in
  frequency
    [
      (1, return Value.Null);
      (3, map (fun n -> Value.Int n) (int_range (-300) 300));
      ( 2,
        map
          (fun (neg, d) ->
            Value.Int ((if neg then -Codec.zz_bound else Codec.zz_bound) + d))
          (pair bool (int_range (-3) 3)) );
      (1, map (fun n -> Value.Int n) int);
      (3, big);
      ( 3,
        map
          (fun s -> Value.Str s)
          (string_size ~gen:(oneofa [| 'a'; 'b'; '\xff' |]) (int_range 0 4)) );
    ]

let sign n = compare n 0

let cmp_enc_law (a, b) =
  sign (Codec.cmp_enc a (Codec.value_tag b) (V2_reference.value_payload b))
  = sign (Value.compare a b)

(* Pages where every strategy shows up: random (mostly raw), clustered
   (int-delta, dict+RLE), and narrow-alphabet edge values (dict). *)
let select_page_gen =
  let open QCheck2.Gen in
  oneof
    [
      page_gen;
      clustered_gen;
      (let* arity = int_range 1 3 in
       list_size (int_range 0 60)
         (map Tuple.of_list (list_repeat arity edge_value_gen)));
    ]

(* A bound: open, a value of the page's column, or an edge value. *)
let bound_gen rows col =
  let open QCheck2.Gen in
  let column = List.map (fun t -> Tuple.get t col) rows in
  frequency
    ((1, return None)
    :: (2, map Option.some edge_value_gen)
    :: (if column = [] then [] else [ (3, map Option.some (oneofl column)) ]))

let select_gen =
  let open QCheck2.Gen in
  let* rows = select_page_gen in
  let arity = match rows with [] -> 1 | t :: _ -> Tuple.arity t in
  let* col = int_range 0 (arity - 1) in
  let* lo = bound_gen rows col in
  let+ hi = bound_gen rows col in
  (rows, col, lo, hi)

let select_law format (rows, col, lo, hi) =
  let enc = Codec.encode_page ~format rows in
  let expect =
    List.filter
      (fun t -> Codec.in_range ~lo ~hi (Tuple.get t col))
      (Codec.decode_page ~format enc)
  in
  let got = Codec.select ~format enc ~col ~lo ~hi in
  List.length got = List.length expect
  && List.for_all2 (fun a b -> Tuple.compare a b = 0) got expect

(* A subset of the positions [0, arity), in random order: empty, all
   and everything between. *)
let cols_gen arity =
  let open QCheck2.Gen in
  let* keep = list_repeat arity bool in
  let kept = List.filteri (fun i _ -> List.nth keep i) (List.init arity Fun.id) in
  map Array.of_list (shuffle_l kept)

(* Reading a column subset equals projecting the full read, for a store
   of bytes ({!Codec.select}) and a store of rows
   ({!Codec.filter_rows}), under random bounds. *)
let select_cols_law format ((rows, col, lo, hi), cols) =
  let enc = Codec.encode_page ~format rows in
  let same a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b
  in
  same
    (Codec.select ~format ~cols enc ~col ~lo ~hi)
    (List.map (Tuple.project cols) (Codec.select ~format enc ~col ~lo ~hi))
  && same
       (Codec.filter_rows ~cols ~col ~lo ~hi rows)
       (List.map (Tuple.project cols) (Codec.filter_rows ~col ~lo ~hi rows))

let select_cols_gen =
  let open QCheck2.Gen in
  let* ((rows, _, _, _) as sel) = select_gen in
  let arity = match rows with [] -> 1 | t :: _ -> Tuple.arity t in
  let+ cols = cols_gen arity in
  (sel, cols)

(* ------------------------------------------------------------------ *)
(* The page directory as the index: lookups after random edits         *)

(* A page store of [format] pages that logs every page it hands the
   pool while [log] is [Some _]: decoded rows in memory (the in-memory
   store's payloads) or, when [file], encoded bytes in a database file
   written in bulk mode.  Freed pages stay in the file unreferenced. *)
let with_logged_store ~format ~file f =
  let log = ref None in
  let logged page payload =
    Option.iter (fun l -> l := page :: !l) !log;
    payload
  in
  let store ~capacity ~back_read ~back_write ~back_rows ~alloc ~free =
    {
      Blas_rel.Page_store.pool =
        Buffer_pool.create ~capacity:4
          {
            Buffer_pool.back_read =
              (fun ~table:_ ~page -> logged page (back_read page));
            back_write = (fun ~table:_ ~page p -> back_write page p);
            back_rows;
          };
      codec = format;
      capacity;
      alloc;
      free;
    }
  in
  if file then
    Test_util.with_temp_db (fun path ->
        let disk = Blas_disk.Store.create ~path ~page_size:256 () in
        Fun.protect
          ~finally:(fun () -> Blas_disk.Store.close disk)
          (fun () ->
            Blas_disk.Store.bulk_load disk (fun () ->
                f
                  (store ~capacity:(Blas_disk.Store.capacity disk)
                     ~back_read:(fun page ->
                       Buffer_pool.Bytes (Blas_disk.Store.read_page disk page))
                     ~back_write:(fun page -> function
                       | Buffer_pool.Bytes b -> Blas_disk.Store.write_page disk page b
                       | Buffer_pool.Rows _ -> invalid_arg "file pages are bytes")
                     ~back_rows:false
                     ~alloc:(fun () -> Blas_disk.Store.alloc_page disk)
                     ~free:ignore)
                  log)))
  else
    let pages = Hashtbl.create 16 and next = ref 0 in
    f
      (store ~capacity:(256 - Blas_disk.Pager.header_bytes)
         ~back_read:(Hashtbl.find pages) ~back_write:(Hashtbl.replace pages)
         ~back_rows:true
         ~alloc:(fun () ->
           incr next;
           !next)
         ~free:(Hashtbl.remove pages))
      log

let dir_schema = Blas_rel.Schema.of_list [ "k"; "s"; "pad" ]

let dir_key_gen =
  let open QCheck2.Gen in
  frequency
    [
      (4, map (fun n -> Value.Int n) (int_range 0 12));
      (2, map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "mid" ]));
      (1, return Value.Null);
    ]

(* A row: key, sequence number, padding that varies the page fill. *)
let dir_row_gen =
  let open QCheck2.Gen in
  map3
    (fun k s n -> Tuple.of_list [ k; Value.Int s; Value.Str (String.make n 'p') ])
    dir_key_gen nat (int_range 0 24)

(* (codec, file store, initial rows, edit batches, probes).  A batch
   deletes a run of consecutive rows (emptying and freeing pages) and
   rows picked by position among the current ones, and inserts fresh
   rows (splitting pages); a probe is an equality (lo = hi) or a range
   with open or closed ends. *)
let directory_gen =
  let open QCheck2.Gen in
  let bound = option dir_key_gen in
  let probe =
    oneof
      [
        map (fun k -> (Some k, Some k)) dir_key_gen; pair bound bound;
      ]
  in
  let batch =
    triple
      (pair nat (int_range 0 40))
      (list_size (int_range 0 10) nat)
      (list_size (int_range 0 40) dir_row_gen)
  in
  tup5
    (oneofl [ Codec.V1; Codec.V2 ])
    bool
    (list_size (int_range 0 120) dir_row_gen)
    (list_size (int_range 1 5) batch)
    (list_size (int_range 1 8) probe)

(* One probe on [t]: the rows equal the full scan filtered on the key,
   in clustered order; one index seek; and the pages read are exactly
   the directory run holding those rows, optionally preceded by the
   page just before it (at most that one page when no row matches). *)
let probe_ok store log t (lo, hi) =
  let pool = store.Blas_rel.Page_store.pool in
  let matches row = Codec.in_range ~lo ~hi (Tuple.get row 0) in
  let rows_of = function
    | Buffer_pool.Rows rows -> rows
    | Buffer_pool.Bytes b -> Codec.decode_page ~format:store.codec b
  in
  Buffer_pool.flush_dirty pool;
  Buffer_pool.flush pool;
  let holding =
    Array.to_list (Table.directory t)
    |> List.filter_map (fun (de : Table.dir_entry) ->
           if
             List.exists matches
               (rows_of (Buffer_pool.peek pool ~table:"x" ~page:de.de_page))
           then Some de.de_page
           else None)
  in
  let expect = List.filter matches (Table.scan t (Blas_rel.Counters.create ())) in
  Buffer_pool.flush pool;
  let read = ref [] in
  log := Some read;
  let c = Blas_rel.Counters.create () in
  let got =
    if lo = hi && lo <> None then Table.index_eq t c ~column:"k" (Option.get lo)
    else Table.index_range t c ~column:"k" ~lo ~hi
  in
  log := None;
  let read = List.rev !read in
  let before_run =
    let dir = Table.directory t in
    let slot page =
      let rec go i = if dir.(i).Table.de_page = page then i else go (i + 1) in
      go 0
    in
    match (read, holding) with
    | [], [] -> true
    | [ _ ], [] -> true
    | p :: rest, h :: _ when rest = holding -> slot p + 1 = slot h
    | _ -> read = holding
  in
  List.length got = List.length expect
  && List.for_all2 (fun a b -> Tuple.compare a b = 0) got expect
  && c.Blas_rel.Counters.index_seeks = 1
  && before_run

let directory_law (format, file, init, batches, probes) =
  with_logged_store ~format ~file (fun store log ->
      let t =
        Table.load store ~name:"x" ~schema:dir_schema ~cluster_key:[ "k"; "s" ]
          init
      in
      let c = Blas_rel.Counters.create () in
      List.for_all (probe_ok store log t) probes
      && List.for_all
           (fun ((first, len), picks, inserts) ->
             let rows = Array.of_list (Table.scan t c) in
             let n = Array.length rows in
             let deletes =
               if n = 0 then []
               else
                 List.sort_uniq compare
                   (List.init (min len n) (fun i -> (first + i) mod n)
                   @ List.map (fun i -> i mod n) picks)
                 |> List.map (fun i -> rows.(i))
             in
             ignore (Table.apply_edits t c ~deletes ~inserts);
             List.for_all (probe_ok store log t) probes)
           batches)

(* [Table] reads of a column subset equal the projected full reads,
   under both codecs, from a store of rows and a store of bytes, before
   and after edit batches that split pages and empty them. *)
let table_cols_law ((format, file, init, batches, probes), cols) =
  with_logged_store ~format ~file (fun store _ ->
      let t =
        Table.load store ~name:"x" ~schema:dir_schema ~cluster_key:[ "k"; "s" ]
          init
      in
      let c = Blas_rel.Counters.create () in
      let names =
        List.map (List.nth (Blas_rel.Schema.columns dir_schema)) (Array.to_list cols)
      in
      let same a b =
        List.length a = List.length b
        && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b
      in
      let reads_agree () =
        same (Table.scan ~cols:names t c) (List.map (Tuple.project cols) (Table.scan t c))
        && List.for_all
             (fun (lo, hi) ->
               same
                 (Table.index_range ~cols:names t c ~column:"k" ~lo ~hi)
                 (List.map (Tuple.project cols)
                    (Table.index_range t c ~column:"k" ~lo ~hi)))
             probes
      in
      reads_agree ()
      && List.for_all
           (fun ((first, len), _, inserts) ->
             let rows = Array.of_list (Table.scan t c) in
             let n = Array.length rows in
             let deletes =
               List.init (min len n) (fun i -> rows.((first + i) mod n))
             in
             ignore (Table.apply_edits t c ~deletes ~inserts);
             reads_agree ())
           batches)

(* The directory with each entry's decoded page rows. *)
let directory_pages store t =
  let pool = store.Blas_rel.Page_store.pool in
  Buffer_pool.flush_dirty pool;
  Array.to_list (Table.directory t)
  |> List.map (fun (de : Table.dir_entry) ->
         ( de,
           match Buffer_pool.peek pool ~table:"x" ~page:de.de_page with
           | Buffer_pool.Rows rows -> rows
           | Buffer_pool.Bytes b -> Codec.decode_page ~format:store.codec b ))

(* The clustered directory equals a sorted model of the rows: every
   page non-empty, within the store's capacity under its codec and
   described by its entry (row count, first row); the pages in
   directory order are the full scan, sorted on the cluster key; and
   the rows are the model's, compared sorted (equal cluster keys keep
   no promised order). *)
let directory_matches store t model =
  let pages = directory_pages store t in
  let key row = (Tuple.get row 0, Tuple.get row 1) in
  let key_cmp a b =
    let (k1, s1), (k2, s2) = (key a, key b) in
    match Value.compare k1 k2 with 0 -> Value.compare s1 s2 | c -> c
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> key_cmp a b <= 0 && sorted rest
    | _ -> true
  in
  let scan = Table.scan t (Blas_rel.Counters.create ()) in
  let same a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b
  in
  List.for_all
    (fun ((de : Table.dir_entry), rows) ->
      rows <> []
      && de.de_nrows = List.length rows
      && Tuple.compare de.de_first (List.hd rows) = 0
      && String.length (Codec.encode_page ~format:store.codec rows)
         <= store.capacity)
    pages
  && same (List.concat_map snd pages) scan
  && sorted scan
  && Table.cardinality t = List.length model
  && same (List.sort Tuple.compare scan) (List.sort Tuple.compare model)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* [Table.apply_edits] keeps the directory equal to the model through
   random batches; a batch deleting a missing row raises before
   anything changes, even when its other deletes are present. *)
let maintenance_law (format, file, init, batches, _) =
  with_logged_store ~format ~file (fun store _ ->
      let t =
        Table.load store ~name:"x" ~schema:dir_schema ~cluster_key:[ "k"; "s" ]
          init
      in
      let c = Blas_rel.Counters.create () in
      let model =
        List.fold_left
          (fun model ((first, len), picks, inserts) ->
            match model with
            | None -> None
            | Some model ->
              let rows = Array.of_list model in
              let n = Array.length rows in
              let picked =
                if n = 0 then []
                else
                  List.sort_uniq compare
                    (List.init (min len n) (fun i -> (first + i) mod n)
                    @ List.map (fun i -> i mod n) picks)
              in
              let deletes = List.map (fun i -> rows.(i)) picked in
              ignore (Table.apply_edits t c ~deletes ~inserts);
              let model =
                List.filteri (fun i _ -> not (List.mem i picked)) model
                @ inserts
              in
              if directory_matches store t model then Some model else None)
          (Some init) batches
      in
      match model with
      | None -> false
      | Some model ->
        let before = directory_pages store t in
        let missing =
          Tuple.of_list [ Value.Str "not-a-key"; Value.Int (-1); Value.Str "" ]
        in
        raises_invalid (fun () ->
            Table.apply_edits t c ~deletes:[ missing ] ~inserts:[])
        && raises_invalid (fun () ->
               Table.apply_edits t c
                 ~deletes:(List.filteri (fun i _ -> i < 1) model @ [ missing ])
                 ~inserts:[ missing ])
        && directory_pages store t = before
        && directory_matches store t model)

(* [t]'s directory as runs of pages, each run led by a page the
   directory held before an edit ([old]) and followed by the fresh
   pages a split of it added: every run must be the reference's cuts of
   its rows at fill 1.0 (the edit path's), each page the reference's
   bytes. *)
let edited_pages_match store t old =
  let pool = store.Blas_rel.Page_store.pool in
  let page_of (de : Table.dir_entry) =
    match Buffer_pool.peek pool ~table:"x" ~page:de.de_page with
    | Buffer_pool.Bytes b -> (Codec.decode_page ~format:Codec.V2 b, b)
    | Buffer_pool.Rows _ -> failwith "expected a store of bytes"
  in
  let runs =
    Array.fold_left
      (fun runs (de : Table.dir_entry) ->
        match runs with
        | run :: rest when not (List.mem de.de_page old) -> (page_of de :: run) :: rest
        | _ -> [ page_of de ] :: runs)
      [] (Table.directory t)
    |> List.rev_map List.rev
  in
  List.for_all
    (fun run ->
      let rows = List.concat_map fst run in
      same_pages run
        (List.map
           (fun rows -> (rows, V2_reference.encode_page rows))
           (V2_reference.pack ~capacity:store.capacity ~fill:1.0 rows)))
    runs

(* Edit batches on a v2 table in a file store rewrite pages — merged in
   place or split — to exactly the reference's cuts and bytes. *)
let edited_builder_law (_, _, init, batches, _) =
  with_logged_store ~format:Codec.V2 ~file:true (fun store _ ->
      let t =
        Table.load store ~name:"x" ~schema:dir_schema ~cluster_key:[ "k"; "s" ]
          init
      in
      let c = Blas_rel.Counters.create () in
      List.for_all
        (fun ((first, len), picks, inserts) ->
          let rows = Array.of_list (Table.rows t) in
          let n = Array.length rows in
          let deletes =
            if n = 0 then []
            else
              List.sort_uniq compare
                (List.init (min len n) (fun i -> (first + i) mod n)
                @ List.map (fun i -> i mod n) picks)
              |> List.map (fun i -> rows.(i))
          in
          let old =
            Array.to_list
              (Array.map (fun (de : Table.dir_entry) -> de.de_page) (Table.directory t))
          in
          ignore (Table.apply_edits t c ~deletes ~inserts);
          edited_pages_match store t old)
        batches)

(* ------------------------------------------------------------------ *)
(* Bulk loads in cluster order without a sort                          *)

(* A table's pages: each directory entry with the page's rows. *)
let table_pages t =
  let pool = (Table.store t).Blas_rel.Page_store.pool in
  Array.to_list (Table.directory t)
  |> List.map (fun (de : Table.dir_entry) ->
         let rows =
           match Buffer_pool.peek pool ~table:(Table.name t) ~page:de.de_page with
           | Buffer_pool.Rows rows -> rows
           | Buffer_pool.Bytes b -> Codec.decode_page ~format:(Table.codec t) b
         in
         (de.de_nrows, de.de_first, rows))

let same_table a b =
  let pa = table_pages a and pb = table_pages b in
  let same_rows x y =
    List.length x = List.length y
    && List.for_all2 (fun u v -> Tuple.compare u v = 0) x y
  in
  List.length pa = List.length pb
  && List.for_all2
       (fun (n1, f1, r1) (n2, f2, r2) ->
         n1 = n2 && Tuple.compare f1 f2 = 0 && same_rows r1 r2)
       pa pb

(* Stable sort on the (lead, start) cluster key. *)
let cluster_sort rows =
  let key t = (Tuple.get t 0, Tuple.get t 1) in
  List.stable_sort
    (fun a b ->
      let (l1, s1), (l2, s2) = (key a, key b) in
      match Value.compare l1 l2 with 0 -> Value.compare s1 s2 | c -> c)
    rows

(* [Columns.tables] buckets the label columns' start-ordered rows by
   P-label (SP) and by tag (SD): its rows are the stably sorted rows of
   the document model, and its tables equal loads of them, page for
   page, under both codecs. *)
let layout_order_law (format, tree) =
  let module Layout = Blas_update.Layout in
  let module Columns = Blas_update.Columns in
  let doc = Blas_xpath.Doc.of_tree tree in
  let cols, guide =
    Columns.of_events (fun f -> Blas_xml.Dom.iter_events tree ~on_event:f)
  in
  let store () = Blas_rel.Page_store.memory ~page_size:256 ~codec:format () in
  let rows row =
    cluster_sort
      (List.map
         (fun (n : Blas_xpath.Doc.node) ->
           row n ~start:n.start ~fin:n.fin ~level:n.level ~data:n.data)
         doc.all)
  in
  let sp_rows = rows (fun n -> Layout.sp_row doc.guide ~path:n.source_path)
  and sd_rows = rows (fun n -> Layout.sd_row ~tag:n.tag) in
  let same_rows a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b
  in
  let bucketed_sp = Columns.sp_rows guide cols and bucketed_sd = Columns.sd_rows cols in
  let sp, sd = Columns.tables (store ()) ~guide cols in
  same_rows bucketed_sp sp_rows
  && same_rows bucketed_sd sd_rows
  && same_table sp (Layout.load (store ()) Layout.sp sp_rows)
  && same_table sd (Layout.load (store ()) Layout.sd sd_rows)

(* Out-of-order input is still sorted: a shuffled load equals the
   sorted one, under both codecs. *)
let test_load_shuffled () =
  let rows =
    List.init 400 (fun i ->
        Tuple.of_list
          [
            Value.Int (i * 7919 mod 13);
            Value.Int i;
            Value.Str (String.make (i mod 9) 'p');
          ])
  in
  let shuffled =
    List.map snd
      (List.sort compare (List.mapi (fun i r -> ((i * 7907) mod 401, r)) rows))
  in
  List.iter
    (fun (format, fname) ->
      let load rows =
        Table.load
          (Blas_rel.Page_store.memory ~page_size:256 ~codec:format ())
          ~name:"x" ~schema:dir_schema ~cluster_key:[ "k"; "s" ] rows
      in
      let t = load shuffled in
      Alcotest.(check bool)
        (Printf.sprintf "shuffled load is clustered (%s)" fname)
        true
        (same_table t (load (cluster_sort rows))
        && List.for_all2
             (fun a b -> Tuple.compare a b = 0)
             (Table.rows t) (cluster_sort rows)))
    formats

(* ------------------------------------------------------------------ *)
(* v2 database coherence vs the in-memory shadow under random edits    *)

type edit =
  | Insert of int * int * string
  | Delete of int
  | Retext of int * string

let edit_gen =
  let open QCheck2.Gen in
  frequency
    [
      ( 3,
        let* rank = int_range 0 50 in
        let* pos = int_range 0 5 in
        let* t = oneofa [| "a"; "b"; "c"; "zz" |] in
        return (Insert (rank, pos, t)) );
      (2, map (fun r -> Delete r) (int_range 0 50));
      ( 1,
        let* r = int_range 0 50 in
        let* v = oneofa [| "x"; "y"; "new" |] in
        return (Retext (r, v)) );
    ]

let script_gen =
  let open QCheck2.Gen in
  let* doc = Test_util.doc_gen in
  let* edits = list_size (int_range 1 8) edit_gen in
  return (doc, edits)

let resolve_edit storage edit =
  let doc = Blas.Storage.doc storage in
  let all = Array.of_list doc.Blas_xpath.Doc.all in
  let node rank = all.(rank mod Array.length all) in
  match edit with
  | Insert (rank, pos, tag) ->
    let parent = node rank in
    let kids = List.length parent.Blas_xpath.Doc.children in
    `Insert
      ( parent.Blas_xpath.Doc.start,
        pos mod (kids + 1),
        Blas_xml.Types.Element (tag, [ Blas_xml.Types.Content "t" ]) )
  | Delete rank ->
    let victim = node rank in
    if
      victim.Blas_xpath.Doc.start
      = doc.Blas_xpath.Doc.root.Blas_xpath.Doc.start
    then `Skip
    else `Delete victim.Blas_xpath.Doc.start
  | Retext (rank, v) -> `Retext ((node rank).Blas_xpath.Doc.start, v)

let apply_edit storage = function
  | `Skip -> ()
  | `Insert (parent, pos, tree) ->
    ignore (Blas.Update.insert_subtree storage ~parent ~pos tree)
  | `Delete start -> ignore (Blas.Update.delete_subtree storage ~start)
  | `Retext (start, v) ->
    ignore (Blas.Update.replace_text storage ~start (Some v))

let coherence_law (tree, edits) =
  let path = Filename.temp_file "blas_codec_test_" ".blasdb" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      let shadow = Blas.Storage.of_tree tree in
      Database.create ~page_size:512 ~codec:Codec.V2 ~path
        (Blas.Storage.of_tree tree);
      let disk = Database.open_ ~cache_pages:16 ~mode:Database.Rw ~path () in
      List.iter
        (fun edit ->
          let resolved = resolve_edit shadow edit in
          apply_edit disk resolved;
          apply_edit shadow resolved)
        edits;
      let ok =
        List.for_all
          (fun q ->
            Blas.oracle shadow (Blas.query q)
            = Blas.answers disk ~engine:Blas.Rdbms ~translator:Blas.Auto2
                (Blas.query q))
          [ "//a"; "//b"; "/r//c"; "//a[//b]" ]
      in
      (* Reopen: the committed v2 pages must decode to the same state. *)
      Blas.Storage.close disk;
      let reopened =
        Database.open_ ~cache_pages:16 ~mode:Database.Ro ~path ()
      in
      let ok_reopened =
        List.for_all
          (fun q ->
            Blas.oracle shadow (Blas.query q)
            = Blas.answers reopened ~engine:Blas.Twig ~translator:Blas.Auto2
                (Blas.query q))
          [ "//a"; "//b"; "/r//c" ]
      in
      Blas.Storage.close reopened;
      ok && ok_reopened)

let suite =
  [
    Alcotest.test_case "corner pages round-trip" `Quick test_corner_pages;
    Alcotest.test_case "decode_column matches full decode" `Quick
      test_decode_column;
    Alcotest.test_case "v2 compresses clustered labels" `Quick
      test_v2_compresses_labels;
    Alcotest.test_case "v2 pack_pages rejects oversized and ragged rows"
      `Quick test_v2_pack_rejects;
    qtest ~count:300 "v1 pages round-trip" page_gen (roundtrip_law Codec.V1);
    qtest ~count:300 "v2 pages round-trip" page_gen (roundtrip_law Codec.V2);
    qtest ~count:300 "v2 columns take the smallest strategy"
      QCheck2.Gen.(oneof [ page_gen; clustered_gen ])
      column_law;
    qtest ~count:150 "v1 pack_pages partitions losslessly" pack_gen
      (pack_law Codec.V1);
    qtest ~count:150 "v2 pack_pages partitions losslessly" pack_gen
      (pack_law Codec.V2);
    qtest ~count:300 "v2 builder pages equal the two-pass reference"
      builder_gen builder_law;
    qtest ~count:100 "v2 edited pages equal the two-pass reference"
      directory_gen edited_builder_law;
    qtest ~count:150 "layout tables equal stably sorted loads"
      QCheck2.Gen.(pair (oneofl [ Codec.V1; Codec.V2 ]) Test_util.doc_gen)
      layout_order_law;
    Alcotest.test_case "load sorts shuffled input" `Quick test_load_shuffled;
    qtest ~count:500 "cmp_enc agrees with Value.compare"
      QCheck2.Gen.(pair edge_value_gen edge_value_gen)
      cmp_enc_law;
    qtest ~count:300 "v1 select equals filtered decode" select_gen
      (select_law Codec.V1);
    qtest ~count:300 "v2 select equals filtered decode" select_gen
      (select_law Codec.V2);
    qtest ~count:300 "v1 select of columns equals projected select"
      select_cols_gen (select_cols_law Codec.V1);
    qtest ~count:300 "v2 select of columns equals projected select"
      select_cols_gen (select_cols_law Codec.V2);
    qtest ~count:100 "table reads of columns equal projected reads"
      QCheck2.Gen.(pair directory_gen (cols_gen 3))
      table_cols_law;
    qtest ~count:150 "directory lookups read only their run" directory_gen
      directory_law;
    qtest ~count:150 "index maintenance matches a sorted model" directory_gen
      maintenance_law;
    qtest ~count:40 "v2 database coherent with shadow under edits"
      script_gen coherence_law;
  ]
