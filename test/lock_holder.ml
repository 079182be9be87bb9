(** Test helper process: holds a read-write open of the database named
    by its argument (the file lock and the WAL), prints "ready", and
    lets go when its stdin closes.  POSIX locks never conflict within
    one process, so lock contention needs a second one. *)

let () =
  let store =
    Blas_disk.Store.open_path ~path:Sys.argv.(1) ~mode:Blas_disk.Store.Rw ()
  in
  print_endline "ready";
  (try ignore (input_line stdin) with End_of_file -> ());
  Blas_disk.Store.close store
