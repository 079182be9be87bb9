(** CRC-32 (IEEE 802.3 polynomial, reflected) over byte strings.

    Every page and WAL record carries a CRC so that recovery can tell a
    torn or bit-rotted write from a valid one.  Every pager read and
    every logged page pays for one, so the inner loop is slicing-by-8:
    eight bytes per step through eight 256-entry tables (table [k]
    advances a byte's CRC past [k] further zero bytes), with the
    classic one-byte table walk for the tail.  Same polynomial, same
    values as the byte-at-a-time walk, dependency-free. *)

(* [tables.(k * 256 + n)]: the CRC of byte [n] followed by [k] zero
   bytes.  Row 0 is the classic byte table. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

(* Indices below are [row * 256 + byte] with [byte < 256], always in
   bounds. *)
let tb i = Array.unsafe_get tables i
let byte s i = Char.code (String.unsafe_get s i)

(** [update crc s] folds the bytes of [s] into a running CRC (start
    from {!empty}). *)
let update crc s =
  let len = String.length s in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 8 <= len do
    let p = !i in
    (* Bytes p..p+6 of the little-endian word; [Int64.to_int] drops its
       top bit, so byte p+7 is read on its own. *)
    let w = Int64.to_int (String.get_int64_le s p) in
    let x = !c lxor (w land 0xFFFFFFFF) in
    c :=
      tb (0x700 + (x land 0xFF))
      lxor tb (0x600 + ((x lsr 8) land 0xFF))
      lxor tb (0x500 + ((x lsr 16) land 0xFF))
      lxor tb (0x400 + (x lsr 24))
      lxor tb (0x300 + ((w lsr 32) land 0xFF))
      lxor tb (0x200 + ((w lsr 40) land 0xFF))
      lxor tb (0x100 + ((w lsr 48) land 0xFF))
      lxor tb (byte s (p + 7));
    i := p + 8
  done;
  for p = !i to len - 1 do
    c := tb ((!c lxor byte s p) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let empty = 0

(** CRC-32 of a whole string. *)
let digest s = update empty s
