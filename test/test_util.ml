(** Shared helpers and QCheck generators for the test suite.

    The random XML documents and queries use a deliberately tiny tag
    alphabet so that random query/document pairs frequently have
    non-empty answers, which is what makes the engine-vs-oracle
    integration property informative. *)

(** A buffer-pool backing whose every page is an empty row list: pool
    tests exercise the LRU without a real page store. *)
let empty_backing =
  {
    Blas_rel.Buffer_pool.back_read = (fun ~table:_ ~page:_ -> Blas_rel.Buffer_pool.Rows []);
    back_write = (fun ~table:_ ~page:_ _ -> ());
    back_rows = true;
  }

(** [on_domains n f] runs [f 0] ... [f (n - 1)] at once, each on a
    freshly spawned domain, and returns the results in index order. *)
let on_domains n f =
  List.map Domain.join (List.init n (fun i -> Domain.spawn (fun () -> f i)))

(** [with_storage storage f] applies [f] to [storage], then closes it.
    Under BLAS_TEST_DISK every [Blas.index] holds a database file open;
    a suite that leaks them pushes later descriptors (the router's
    sockets) past FD_SETSIZE. *)
let with_storage storage f =
  Fun.protect ~finally:(fun () -> Blas.Storage.close storage) (fun () -> f storage)

(** [storage_of_columns ?page_size ~codec (cols, guide)] — a storage
    whose SP and SD are bulk-loaded from label columns
    ({!Blas_update.Columns.tables}) onto an in-memory page store of
    [page_size]-byte pages: from the builder's columns
    ({!Blas_update.Columns.of_events}) at a page size other than the
    default, or from a labeled model's ({!columns_of_doc})
    to index a view of edited columns with its labels kept.  Its label
    columns are built from SD on first use. *)
let storage_of_columns ?page_size ~codec (cols, guide) =
  let store = Blas_rel.Page_store.memory ?page_size ~codec () in
  let sp, sd = Blas_update.Columns.tables store ~guide cols in
  Blas.Storage.assemble ~codec ~guide ~sp ~sd ~pool:store.Blas_rel.Page_store.pool ()

(** [columns_of_doc doc] — the columns of a labeled document model,
    its labels kept (a view of edited columns rebuilds them), from its
    SD rows, and [doc]'s guide. *)
let columns_of_doc (doc : Blas_xpath.Doc.t) =
  ( fst
      (Blas_update.Columns.of_sd
         (List.map
            (fun (n : Blas_xpath.Doc.node) ->
              Blas_update.Layout.sd_row ~tag:n.tag ~start:n.start ~fin:n.fin ~level:n.level
                ~data:n.data)
            doc.all)),
    doc.guide )

(** The builder's columns and guide of [tree]'s events. *)
let columns_of_tree tree =
  Blas_update.Columns.of_events (fun f -> Blas_xml.Dom.iter_events tree ~on_event:f)

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let tags = [| "a"; "b"; "c"; "d" |]

let values = [| "x"; "y" |]

open QCheck2.Gen

let tag = oneofa tags

let value = oneofa values

(* Random value constraint: mostly equality, sometimes inequality. *)
let value_constraint =
  let open QCheck2.Gen in
  let* v = oneofa values in
  let* ne = frequency [ (3, return false); (1, return true) ] in
  return (if ne then Blas_xpath.Ast.Differs v else Blas_xpath.Ast.Equals v)

(** Random XML tree: depth <= 5, small fanout, with occasional text. *)
let tree_gen =
  let open Blas_xml.Types in
  sized_size (int_range 1 40) @@ fix (fun self budget ->
      let leaf =
        let* t = tag in
        let* txt = opt value in
        return
          (Element (t, match txt with Some s -> [ Content s ] | None -> []))
      in
      if budget <= 1 then leaf
      else
        let* t = tag in
        let* n = int_range 1 3 in
        let* kids = list_size (return n) (self (budget / (n + 1))) in
        let* txt = opt value in
        let kids = match txt with Some s -> Content s :: kids | None -> kids in
        return (Element (t, kids)))

(** Wraps a random tree in a fixed root so the document root tag is
    predictable for absolute queries. *)
let doc_gen =
  let* kids = list_size (int_range 1 3) tree_gen in
  return (Blas_xml.Types.Element ("r", kids))

(** Random query tree in the paper's subset.  [wildcards] enables [*]
    steps. *)
let query_gen ?(wildcards = false) () =
  let open Blas_xpath.Ast in
  let axis = oneofl [ Child; Descendant ] in
  let test =
    if wildcards then
      frequency [ (4, map (fun t -> Tag t) tag); (1, return Any) ]
    else map (fun t -> Tag t) tag
  in
  (* Branch subqueries: no output marking. *)
  let branch =
    fix
      (fun self depth ->
        let* ax = axis in
        let* tst = test in
        let* v = if depth > 2 then opt value_constraint else return None in
        let* children =
          if depth > 2 || v <> None then return []
          else list_size (int_range 0 1) (self (depth + 1))
        in
        let v = if children = [] then v else None in
        return { axis = ax; test = tst; value = v; children; is_output = false })
      1
  in
  (* The main path: 1-4 steps, each with 0-2 branch predicates; the last
     step is the return node and may carry a value. *)
  let* steps = int_range 1 4 in
  let rec main i =
    let* ax = if i = 0 then oneofl [ Child; Descendant ] else axis in
    let* tst = test in
    let* branches = list_size (int_range 0 (if i = 0 then 1 else 2)) branch in
    if i = steps - 1 then
      let* v = opt value_constraint in
      return { axis = ax; test = tst; value = v; children = branches; is_output = true }
    else
      let* rest = main (i + 1) in
      return
        { axis = ax; test = tst; value = None; children = branches @ [ rest ]; is_output = false }
  in
  let* q = main 0 in
  (* Anchor absolute roots at the fixed document root tag so they are
     satisfiable. *)
  return (if q.axis = Child then { q with test = Tag "r" } else q)

let pp_tree tree = Blas_xml.Printer.compact tree

let pp_query q = Blas_xpath.Pretty.to_string q

(* Substring containment, avoiding a Str dependency. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let check_int_list = Alcotest.(check (list int))

(** [copy_fixture name path] copies [test/fixtures/name] to [path]. *)
let copy_fixture name path =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) ("fixtures/" ^ name);
      "test/fixtures/" ^ name;
      "fixtures/" ^ name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "fixture %s not found" name
  | Some src ->
    In_channel.with_open_bin src (fun ic ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (In_channel.input_all ic)))

(** [with_temp_db f] runs [f] on a fresh database path and deletes the
    file and its WAL afterwards. *)
let with_temp_db f =
  let path = Filename.temp_file "blas_test_" ".blasdb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () -> f path)

(** [with_db_copy storage f] saves [storage] as a database file and runs
    [f] on the file reopened read-only. *)
let with_db_copy storage f =
  with_temp_db (fun path ->
      Blas.Database.create ~path storage;
      let reopened = Blas.Database.open_ ~mode:Blas.Database.Ro ~path () in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close reopened)
        (fun () -> f reopened))

(** [respread_edit storage k] inserts a root child tagged [k] m's just
    before the root's last child.  Called with k = 1, 2, 3, ... every
    new path [/root/mmm...] sorts right after the previous one in
    reversed-path order, so each takes half of the same P-label gap
    until it runs out and the guide respreads. *)
let respread_edit storage k =
  let root = (Blas.Storage.doc storage).Blas_xpath.Doc.root in
  Blas.Update.insert_subtree storage ~parent:root.Blas_xpath.Doc.start
    ~pos:(List.length root.Blas_xpath.Doc.children - 1)
    (Blas_xml.Types.Element (String.make k 'm', [ Blas_xml.Types.Content "t" ]))
