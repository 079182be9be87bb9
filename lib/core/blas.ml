(** The public face of the BLAS system (Figure 6): build the bi-labeled
    index once, then translate and run XPath queries with any of the
    three BLAS translators or the D-labeling baseline, on either query
    engine.

    {[
      let storage = Blas.index "<a><b>hi</b></a>" in
      let query = Blas.query "/a/b" in
      let report = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup query in
      report.starts  (* start positions of the answer nodes *)
    ]} *)

module Storage = Storage
module Suffix_query = Suffix_query
module Decompose = Decompose
module Translate = Translate
module Baseline = Baseline
module Engine_twig = Engine_twig
module Cost = Cost
module Update = Update
module Par = Blas_par
module Cache = Qcache
module Loader = Loader
module Database = Database
module Optimizer = Optimizer

type translator = Exec.translator =
  | D_labeling
  | Split
  | Pushup
  | Unfold
  | Auto2

type engine = Exec.engine = Rdbms | Twig

type report = Exec.report = {
  starts : int list;
  visited : int;
  page_reads : int;
  plan_djoins : int;
  memo_hits : int;
  sql : Blas_rel.Sql_ast.t option;
  counters : Blas_rel.Counters.t;
  choice : Optimizer.choice option;
}

let actual_cost = Exec.actual_cost

let translator_name = Exec.translator_name

let engine_name = Exec.engine_name

(* BLAS_TEST_COMPACT=1 flips Codec.default_format to V2, which
   Storage.of_tree and Database.create pick up below — whole suites then
   run on the compact columnar layout with no code changes here.

   BLAS_TEST_DISK=1 reroutes every [index] through a temporary database
   file (small pages, small cache), so whole existing suites exercise
   the disk engine end to end.  Temp files are cleaned up at exit. *)
let test_disk_enabled =
  match Sys.getenv_opt "BLAS_TEST_DISK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let test_disk_lock = Mutex.create ()
let test_disk_files : string list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun path ->
          (try Sys.remove path with Sys_error _ -> ());
          try Sys.remove (path ^ ".wal") with Sys_error _ -> ())
        !test_disk_files)

let maybe_disk storage =
  if not test_disk_enabled then storage
  else begin
    let path = Filename.temp_file "blas_test_" ".blasdb" in
    Mutex.lock test_disk_lock;
    test_disk_files := path :: !test_disk_files;
    Mutex.unlock test_disk_lock;
    Database.create ~page_size:4096 ~path storage;
    Database.open_ ~cache_pages:512 ~mode:Database.Rw ~path ()
  end

(** [index xml] parses [xml] and builds the SP and SD storage.  With
    BLAS_TEST_DISK set, the storage is round-tripped through a
    temporary database file (disk-backed test mode). *)
let index xml = maybe_disk (Storage.of_string xml)

let index_of_tree tree = maybe_disk (Storage.of_tree tree)

(** [query s] parses an XPath string.
    @raise Blas_xpath.Parser.Error on malformed input. *)
let query s = Blas_xpath.Parser.parse s

let decompose = Exec.decompose

let sql_for = Exec.sql_for

let plan_for = Exec.plan_for

let run ?tracer ?cancel ?cache storage ~engine ~translator q =
  Exec.run ?tracer ?cancel ?cache storage ~engine ~translator q

let run_analyze = Exec.run_analyze

let union_report = Exec.union

let set_metrics = Exec.set_metrics

let answers = Exec.answers

let oracle = Exec.oracle

(* ------------------------------------------------------------------ *)
(* Union queries (the [or] extension)                                 *)

(** [query_union s] parses a query that may contain [or] predicates
    into the equivalent union of tree queries. *)
let query_union s = Blas_xpath.Parser.parse_union s

(** [run_union storage ~engine ~translator queries] executes a union of
    tree queries, one after another, and merges the reports
    ({!union_report}). *)
let run_union ?tracer ?cancel ?cache storage ~engine ~translator queries =
  union_report
    (List.map (run ?tracer ?cancel ?cache storage ~engine ~translator) queries)

let oracle_union storage queries =
  List.sort_uniq Stdlib.compare (List.concat_map (oracle storage) queries)

(* ------------------------------------------------------------------ *)
(* Answer materialization                                             *)

(** [node_at storage start] — the document node behind an answer,
    built from the label columns with its subtree only (O(subtree)
    once the columns exist; building them is one SD scan). *)
let node_at (storage : Storage.t) start =
  let c = Storage.columns storage in
  Option.map (Blas_update.Columns.node c) (Blas_update.Columns.find c start)

(** [materialize storage starts] rebuilds the answer subtrees in
    document order (the output-generation step the paper's measurements
    exclude).  Unknown positions are skipped. *)
let materialize (storage : Storage.t) starts =
  List.filter_map
    (fun start -> Option.map Blas_xpath.Doc.subtree (node_at storage start))
    starts
