(** The paper-currency golden file: D-joins, visited elements,
    intermediate tuples, the selection profile, cold page reads and the
    [auto2] pick for every Figure 10 / XMark cell at base scale
    ({!Golden.Currencies}), compared byte for byte with
    [test/golden/currencies.txt] ([currencies.v2.txt] under
    BLAS_TEST_COMPACT).  Under BLAS_TEST_DISK the storages are database
    files and every column but the page reads must still match.

    Regenerate (from the repository root) only when a change is meant
    to move these numbers, and explain every moved line:

    {v dune exec test/golden/regen.exe > test/golden/currencies.txt
    BLAS_TEST_COMPACT=1 dune exec test/golden/regen.exe > test/golden/currencies.v2.txt v} *)

let disk_mode =
  match Sys.getenv_opt "BLAS_TEST_DISK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* The committed file: next to the test binary under [dune test], in
   the source tree under [dune exec] from the repository root. *)
let golden_path () =
  let name = Golden.Currencies.file_name () in
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) ("golden/" ^ name);
      "test/golden/" ^ name;
      "golden/" ^ name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "golden file %s not found" name

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let check_against_golden got =
  let expected = read_lines (golden_path ()) in
  let key = if disk_mode then Golden.Currencies.strip_pages else Fun.id in
  Test_util.check_int "cells" (List.length expected) (List.length got);
  List.iter2
    (fun e g -> Alcotest.(check string) "currency line" (key e) (key g))
    expected got

let matches () = check_against_golden (Golden.Currencies.lines ())

(* EXPLAIN ANALYZE is the same run with a collector attached, so every
   currency — the Auto2 pick included — must come out the same. *)
let analyze_matches () =
  check_against_golden (Golden.Currencies.lines ~analyze:true ())

let suite =
  [
    Alcotest.test_case "currencies match the golden file" `Quick matches;
    Alcotest.test_case "EXPLAIN ANALYZE reproduces the golden currencies"
      `Quick analyze_matches;
  ]
