(** The two-pass v2 page encoder the one-pass builder
    ({!Blas_rel.Codec.pack_pages} under [V2]) replaced, kept as the
    reference its page cuts and bytes are checked against
    ([test_codec]): {!pack} cuts rows by a running size kept as rows
    append, and {!encode_page} prices each column again and writes the
    strategy that prices smallest. *)

module Codec = Blas_rel.Codec
module Value = Blas_rel.Value
module Tuple = Blas_rel.Tuple
module Wire = Blas_disk.Wire

let st_int_delta = 0
let st_dict = 1
let st_raw = 2
let varint_bytes = Codec.varint_bytes
let zigzag = Codec.zigzag
let zz_bound = Codec.zz_bound

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

let value_tag = Codec.value_tag

let value_payload v =
  match (v : Value.t) with
  | Null -> ""
  | Int n ->
      let buf = Buffer.create 8 in
      Wire.write_varint buf (if n >= 0 then n else -n - 1);
      Buffer.contents buf
  | Str s -> s

let shared_prefix = Codec.shared_prefix

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let encode_dict values =
  let buf = Buffer.create 128 in
  Wire.write_u8 buf st_dict;
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
  Array.iter (Codec.add_value buf) values;
  Buffer.contents buf

type col_size = {
  mutable delta : int;
  mutable prev : int;
  seen : (int * int) VH.t;
  mutable entries : int;
  mutable last : string;
  mutable nruns : int;
  mutable runs : int;
  mutable run_value : Value.t;
  mutable run_len : int;
  mutable run_raw : int;
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
          let e = (VH.length c.seen, Codec.value_bytes v) in
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

let col_pick c =
  let dict =
    varint_bytes (VH.length c.seen) + c.entries + varint_bytes c.nruns + c.runs
  in
  if c.delta >= 0 && c.delta <= dict && c.delta <= c.raw then
    (st_int_delta, c.delta)
  else if dict <= c.raw then (st_dict, dict)
  else (st_raw, c.raw)

let encode_column values =
  let c = col_size () in
  Array.iter (col_add c) values;
  match fst (col_pick c) with
  | s when s = st_int_delta -> encode_int_delta values
  | s when s = st_dict -> encode_dict values
  | _ -> encode_raw values

let encode_page tuples =
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
    List.iter (fun b -> Wire.write_varint buf (String.length b)) blocks;
    List.iter (Buffer.add_string buf) blocks;
    Buffer.contents buf
  end

type v2_size = { mutable nrows : int; cols : col_size array }

let v2_size ncols = { nrows = 0; cols = Array.init ncols (fun _ -> col_size ()) }

let v2_add s t =
  if Tuple.arity t <> Array.length s.cols then
    invalid_arg "Codec.encode_page: ragged tuple arities";
  Array.iteri (fun i c -> col_add c (Tuple.get t i)) s.cols;
  s.nrows <- s.nrows + 1

let v2_bytes s =
  Array.fold_left
    (fun acc c ->
      let b = 1 + snd (col_pick c) in
      acc + varint_bytes b + b)
    (varint_bytes s.nrows + varint_bytes (Array.length s.cols))
    s.cols

let pack ~capacity ~fill tuples =
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
