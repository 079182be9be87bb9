(** The WAL record framing {!Blas_disk.Wal.frame_tx} replaced, kept as
    the reference its bytes are checked against ([test_disk]). *)

module Wire = Blas_disk.Wire
module Checksum = Blas_disk.Checksum

type record = Page of int * string | Root of string | Commit of int

let kind_byte = function Page _ -> 1 | Root _ -> 2 | Commit _ -> 3

let encode_payload = function
  | Page (id, payload) ->
    let buf = Buffer.create (String.length payload + 4) in
    Wire.write_varint buf id;
    Buffer.add_string buf payload;
    Buffer.contents buf
  | Root root -> root
  | Commit count -> Wire.u32_to_string count

let add_record buf record =
  let payload = encode_payload record in
  let kind = kind_byte record in
  let crc =
    Checksum.update (Checksum.digest (String.make 1 (Char.chr kind))) payload
  in
  Wire.write_u32 buf crc;
  Wire.write_u32 buf (String.length payload);
  Wire.write_u8 buf kind;
  Buffer.add_string buf payload

let frame_tx ~pages ~root ~count =
  let buf = Buffer.create 4096 in
  List.iter (fun (id, payload) -> add_record buf (Page (id, payload))) pages;
  (match root with None -> () | Some r -> add_record buf (Root r));
  add_record buf (Commit count);
  Buffer.contents buf
