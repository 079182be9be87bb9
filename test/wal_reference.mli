(** The WAL record framing {!Blas_disk.Wal.frame_tx} replaced, kept as
    the reference its bytes are checked against ([test_disk]): each
    record built through a payload string and a one-byte kind string
    into a growing buffer, then copied out. *)

(** A transaction's records: each page image, the root if any, then
    the commit marker. *)
val frame_tx : pages:(int * string) list -> root:string option -> count:int -> string
