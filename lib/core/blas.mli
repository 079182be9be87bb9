(** The public face of the BLAS system (the paper's Figure 6): build the
    bi-labeled index once, then translate and run XPath queries with any
    of the three BLAS translators or the D-labeling baseline, on either
    query engine.

    {[
      let storage = Blas.index "<a><b>hi</b></a>" in
      let query = Blas.query "/a/b" in
      let report = Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup query in
      report.starts (* start positions of the answer nodes *)
    ]}

    Every query runs as one sequential plan on the domain that calls
    {!run}, as in the paper's evaluation.  Parallelism lives between
    requests: one storage may be queried from several domains at once
    (the server spreads its request workers over [-j N] domains), and
    the shared state a query reaches — buffer pool, pager, caches,
    statistics, metrics — is domain-safe. *)

module Storage = Storage
module Suffix_query = Suffix_query
module Decompose = Decompose
module Translate = Translate
module Baseline = Baseline
module Engine_twig = Engine_twig
module Cost = Cost

(** Incremental updates: insert/delete subtrees, replace text values —
    in place, with label maintenance (see {!Update}). *)
module Update = Update

(** Deadline tokens: {!run}'s [?cancel] hook is usually
    [fun () -> Par.Token.check token], which raises {!Par.Cancelled}. *)
module Par = Blas_par

(** The query cache (whole-query result memo and P-interval scan
    cache) attached to every {!Storage.t}.
    Disabled by default; switch it on per storage with
    {!Storage.set_cache_enabled} or per run with {!run}'s [?cache]. *)
module Cache = Qcache

(** The one storage loader behind the CLI and the network server:
    sniffs database / XML files and memoizes unchanged loads per
    process. *)
module Loader = Loader

(** Disk-backed databases: bulk-load a storage into a `.blasdb` file,
    reopen it in O(pages touched) through a bounded page cache, run
    updates as WAL-protected transactions, recover from crashes on
    open (see {!Database}). *)
module Database = Database

(** The cost-based adaptive optimizer behind [Auto2]: statistics
    collected at index time, a planner pricing {Split, Push-up, Unfold}
    × {RDBMS, twig}, and the update-protocol
    staleness hook (see {!Optimizer}). *)
module Optimizer = Optimizer

type translator = Exec.translator =
  | D_labeling  (** the baseline: one D-join per query edge over SD *)
  | Split  (** Section 4.1.1 *)
  | Pushup  (** Section 4.1.2 — the paper's default without schema *)
  | Unfold
      (** Section 4.1.3 — the paper's default with schema, and the one
          translator that expands [//] and [*] against it; past
          {!Decompose.expansion_bound} union branches it is the Push-up
          translation *)
  | Auto2
      (** the adaptive optimizer: picks translator {e and} engine by
          estimated cost from collected statistics — no data probes;
          the pick overrides {!run}'s [~engine] *)

type engine = Exec.engine = Rdbms | Twig

val translator_name : translator -> string

val engine_name : engine -> string

type report = Exec.report = {
  starts : int list;  (** answer nodes (start positions), sorted, unique *)
  visited : int;  (** base-table tuples / stream elements read *)
  page_reads : int;
      (** buffer-pool misses during this run — the disk accesses;
          flush first with {!Storage.cold_cache} for the paper's
          cold-cache protocol *)
  plan_djoins : int;  (** D-joins in the executed plan *)
  memo_hits : int;
      (** runs served whole from the query-result memo (0 or 1 per
          {!run}; union reports sum them) *)
  sql : Blas_rel.Sql_ast.t option;
      (** the generated SQL; [None] for twig runs or provably empty
          queries *)
  counters : Blas_rel.Counters.t;
      (** the full cost vector of this run (tuples, seeks, joins,
          intermediate results, page traffic) *)
  choice : Optimizer.choice option;
      (** the [Auto2] pick with its priced candidate table; [None]
          under every other translator *)
}

(** Measured cost of a finished report in the optimizer's pricing unit
    — comparable against [choice.ch_est_cost].  [engine] is the engine
    that ran (for [Auto2], the picked one). *)
val actual_cost : engine:engine -> report -> float

(** [index xml] parses [xml] and builds the SP and SD storage.  With
    the BLAS_TEST_DISK environment variable set (disk-backed test
    mode), the storage is round-tripped through a temporary database
    file so existing suites exercise the disk engine.  With
    BLAS_TEST_COMPACT set, both the in-memory pages and any database
    files use the v2 compact codec
    ({!Blas_rel.Codec.default_format}), so the same suites exercise the
    compressed layout end to end.
    @raise Blas_xml.Types.Parse_error on malformed XML. *)
val index : string -> Storage.t

val index_of_tree : Blas_xml.Types.tree -> Storage.t

(** [query s] parses an XPath string.
    @raise Blas_xpath.Parser.Error on malformed input. *)
val query : string -> Blas_xpath.Ast.t

(** The suffix-path decomposition (union branches) a BLAS translator
    produces.
    @raise Invalid_argument for [D_labeling], which does not decompose. *)
val decompose :
  Storage.t -> translator -> Blas_xpath.Ast.t -> Suffix_query.t list

(** The SQL query plan each translator generates (the paper's Figure 11
    shows these for QS3); [None] when provably empty. *)
val sql_for :
  Storage.t -> translator -> Blas_xpath.Ast.t -> Blas_rel.Sql_ast.t option

(** The compiled physical plan. *)
val plan_for :
  Storage.t -> translator -> Blas_xpath.Ast.t -> Blas_rel.Algebra.plan option

(** Translate and execute — the one query pipeline: every other entry
    point ({!run_analyze}, {!run_union}, {!answers}) goes through it.
    With an enabled [tracer] the run is recorded as a [query] span over
    its lifecycle phases.

    [?cache] overrides the storage's cache switch for this run only
    ([Some false] forces a cold reference run without flushing the
    cache; the default follows {!Storage.cache_enabled}, which starts
    off).  With caching active, P-label scans are served from the
    scan cache (exact hits on the scanned P-interval), and suffix-path
    queries replay memoized answers with zero I/O until an update
    touches their footprint.

    [?cancel] is the cooperative cancellation hook: called at every
    phase and operator boundary of the run, it aborts by raising —
    deadline enforcement passes [fun () -> Par.Token.check token] and
    catches {!Par.Cancelled}. *)
val run :
  ?tracer:Blas_obs.Trace.t ->
  ?cancel:(unit -> unit) ->
  ?cache:bool ->
  Storage.t ->
  engine:engine ->
  translator:translator ->
  Blas_xpath.Ast.t ->
  report

(** [run_analyze storage ~engine ~translator q] — EXPLAIN ANALYZE: the
    same {!run} with a collector attached, also returning the annotated
    operator tree of the plan that ran (actual rows, elapsed time and
    I/O per executed operator).  Summing the tree's [self] stats
    reconciles exactly with [report.counters].  The run bypasses the
    whole-query memo, so the tree is always a real execution; with
    caching active the root label reports this run's cache delta. *)
val run_analyze :
  ?tracer:Blas_obs.Trace.t ->
  ?cache:bool ->
  Storage.t ->
  engine:engine ->
  translator:translator ->
  Blas_xpath.Ast.t ->
  report * Blas_obs.Analyze.node

(** [set_metrics (Some registry)] installs the registry that receives
    per-query metrics ([blas.queries], [blas.query.latency_ns] labelled
    by engine and translator, [blas.tuples.read], [blas.pages.read]);
    [set_metrics None] (the default) disables recording. *)
val set_metrics : Blas_obs.Metrics.t option -> unit

(** Just the result set. *)
val answers :
  Storage.t -> engine:engine -> translator:translator -> Blas_xpath.Ast.t -> int list

(** The naive tree-pattern evaluator — the correctness reference. *)
val oracle : Storage.t -> Blas_xpath.Ast.t -> int list

(** [query_union s] parses a query that may contain [or] predicates into
    the equivalent union of tree queries.
    @raise Blas_xpath.Parser.Error on malformed input. *)
val query_union : string -> Blas_xpath.Ast.t list

(** Executes a union of tree queries, in order, and merges the reports
    with {!union_report}. *)
val run_union :
  ?tracer:Blas_obs.Trace.t ->
  ?cancel:(unit -> unit) ->
  ?cache:bool ->
  Storage.t ->
  engine:engine ->
  translator:translator ->
  Blas_xpath.Ast.t list ->
  report

(** The report of a union of tree queries from the per-query reports:
    answers united, costs summed, the SQL the UNION of the per-query
    SQL, the first [Auto2] pick. *)
val union_report : report list -> report

val oracle_union : Storage.t -> Blas_xpath.Ast.t list -> int list

(** The document node behind an answer position, built from the label
    columns with its subtree only: O(subtree) once the columns exist
    (the first call after an open builds them, one SD scan). *)
val node_at : Storage.t -> int -> Blas_xpath.Doc.node option

(** [materialize storage starts] rebuilds the answer subtrees in
    document order (the output-generation step the paper's measurements
    exclude). *)
val materialize : Storage.t -> int list -> Blas_xml.Types.tree list
