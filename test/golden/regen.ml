(* Prints the golden currency lines for the active codec.  Regenerate
   both files from the repository root with

     dune exec test/golden/regen.exe > test/golden/currencies.txt
     BLAS_TEST_COMPACT=1 dune exec test/golden/regen.exe > test/golden/currencies.v2.txt *)

let () = List.iter print_endline (Golden.Currencies.lines ())
