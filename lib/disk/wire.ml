(** Little binary helpers shared by the pager, WAL and catalog codecs:
    fixed-width little-endian integers, LEB128 varints and
    length-prefixed strings, over [Buffer] for writing and a cursor
    record for reading. *)

exception Truncated

let write_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xFF))

let write_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF))

let u32_to_string n =
  let buf = Buffer.create 4 in
  write_u32 buf n;
  Buffer.contents buf

(** LEB128; only non-negative ints. *)
let write_varint buf n =
  if n < 0 then invalid_arg "Wire.write_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let remaining r = String.length r.src - r.pos
let eof r = remaining r = 0

let read_u8 r =
  if remaining r < 1 then raise Truncated;
  let n = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  n

let read_u32 r =
  if remaining r < 4 then raise Truncated;
  let b i = Char.code r.src.[r.pos + i] in
  let n = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  n

let read_varint r =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if remaining r < 1 then raise Truncated;
    let b = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    acc := !acc lor ((b land 0x7F) lsl !shift);
    if b land 0x80 = 0 then more := false
    else if !shift > 56 then raise Truncated
    else shift := !shift + 7
  done;
  !acc

let read_bytes r n =
  if n < 0 || remaining r < n then raise Truncated;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_string r =
  let n = read_varint r in
  read_bytes r n
