(** Suffix path queries on document-style data: the Shakespeare workload
    of Section 5, plus a demonstration of the P-labeling machinery
    itself — intervals, containment, and why a whole chain of child
    steps costs one index lookup.

    Run with: [dune exec examples/shakespeare_lines.exe] *)

let () =
  let tree = Blas_datagen.Shakespeare.generate ~plays:10 () in
  let storage = Blas.index_of_tree tree in
  let guide = Blas.Storage.guide storage in

  (* P-label intervals for deeper and deeper suffixes of the same path,
     mirroring the paper's Figure 5. *)
  print_endline "P-label intervals (Figure 5 style):";
  let paths =
    [
      { Blas.Suffix_query.absolute = false; tags = [ "LINE" ] };
      { Blas.Suffix_query.absolute = false; tags = [ "SPEECH"; "LINE" ] };
      { Blas.Suffix_query.absolute = false; tags = [ "SCENE"; "SPEECH"; "LINE" ] };
      {
        Blas.Suffix_query.absolute = true;
        tags = [ "PLAYS"; "PLAY"; "ACT"; "SCENE"; "SPEECH"; "LINE" ];
      };
    ]
  in
  let intervals = List.filter_map (Blas.Suffix_query.interval guide) paths in
  List.iter2
    (fun path (lo, hi) ->
      Printf.printf "  %-45s <%d, %d>\n"
        (Format.asprintf "%a" Blas.Suffix_query.pp_path path)
        lo hi)
    paths intervals;

  (* Each interval is nested in the previous one (Definition 3.2). *)
  let rec check = function
    | (olo, ohi) :: ((ilo, ihi) :: _ as rest) ->
      assert (olo <= ilo && ihi <= ohi);
      check rest
    | _ -> ()
  in
  check intervals;
  print_endline "  (each interval contains the next: path containment = interval containment)\n";

  (* The suffix path query costs one clustered range scan regardless of
     its length; the D-labeling baseline joins once per step. *)
  let queries =
    [
      ("all lines", "//LINE");
      ("lines in speeches", "//SPEECH/LINE");
      ("QS1 (6 steps)", "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE");
      ("QS2", "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR");
      ("QS3", "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public place.\"]//LINE");
    ]
  in
  Printf.printf "%-20s %9s | %18s | %18s\n" "query" "answers" "D-labeling visited"
    "Push-up visited";
  List.iter
    (fun (label, qs) ->
      let query = Blas.query qs in
      let baseline = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.D_labeling query in
      let pushup = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup query in
      assert (baseline.Blas.starts = pushup.Blas.starts);
      Printf.printf "%-20s %9d | %18d | %18d\n" label
        (List.length pushup.Blas.starts)
        baseline.visited pushup.visited)
    queries

(* PathStack: linear patterns admit full embedding enumeration, not
   just output bindings — e.g. every (ACT, SCENE, SPEECH, LINE)
   combination behind QS1's answers. *)
let () =
  let tree = Blas_datagen.Shakespeare.generate ~plays:2 () in
  let storage = Blas.index_of_tree tree in
  let counters = Blas_rel.Counters.create () in
  let query = Blas.query "//ACT//SCENE//SPEECH//LINE" in
  match Blas.decompose storage Blas.Split query with
  | [ branch ] ->
    let pattern = Blas.Engine_twig.pattern_of_branch storage counters branch in
    let embeddings = Blas_twig.Path_stack.solution_count pattern in
    let bindings =
      List.length
        (Blas.run storage ~engine:Blas.Twig ~translator:Blas.Split query).starts
    in
    Printf.printf
      "\nPathStack on //ACT//SCENE//SPEECH//LINE: %d embeddings for %d LINE bindings\n"
      embeddings bindings
  | _ -> ()
