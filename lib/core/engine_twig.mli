(** The file-system / holistic-twig-join engine (the paper's second
    engine alternative): suffix-path subqueries become P-label range
    scans feeding D-label streams into the getNext holistic twig join
    ({!Blas_twig.Twig_stack}).

    A decomposition with several union branches (Unfold) runs one twig
    join per branch and unites the answers; the paper's prototype did
    not support unions, so its experiments compare only D-labeling,
    Split and Push-up — the engine itself is complete. *)

(** The columns a D-label stream reads, in SP/SD table order:
    [start], [end], [level], plus [data] under a value predicate. *)
val stream_cols : Blas_xpath.Ast.value_constraint option -> string list

(** [entries ?keep_level value (cols, rows)] — the stream entries of
    [rows], which hold the columns [cols] (at least {!stream_cols}
    [value]), whose [data] satisfies [value] and whose level passes
    [keep_level] (default: any). *)
val entries :
  ?keep_level:(int -> bool) ->
  Blas_xpath.Ast.value_constraint option ->
  string list * Blas_rel.Tuple.t list ->
  Blas_twig.Entry.t list

(** EXPLAIN ANALYZE hook installed around each pattern node's
    construction (children nest inside the parent's call). *)
type wrap =
  label:string -> (unit -> Blas_twig.Pattern.node) -> Blas_twig.Pattern.node

(** [pattern_of_branch storage counters branch] roots the join tree and
    materializes every item's stream.  [cache] is the query cache's scan hook, shared
    with the RDBMS engine, which holds each access's rows before the
    item's value predicate. *)
val pattern_of_branch :
  ?wrap:wrap ->
  ?cancel:(unit -> unit) ->
  ?cache:Blas_rel.Executor.scan_cache ->
  Storage.t ->
  Blas_rel.Counters.t ->
  Suffix_query.t ->
  Blas_twig.Pattern.node

(** One holistic twig join: [label] names it in EXPLAIN ANALYZE;
    [build ~wrap counters] materializes its pattern's streams, charging
    [counters] and installing [wrap] around every pattern node. *)
type join = {
  label : string;
  build : wrap:wrap -> Blas_rel.Counters.t -> Blas_twig.Pattern.node;
}

(** [branch_joins storage branches] — one join per union branch of a
    decomposed query; [cancel] and [cache] as for
    {!pattern_of_branch}. *)
val branch_joins :
  ?cancel:(unit -> unit) ->
  ?cache:Blas_rel.Executor.scan_cache ->
  Storage.t ->
  Suffix_query.t list ->
  join list

(** [run ?collector counters joins] runs each join with the
    paper's getNext algorithm ({!Blas_twig.Twig_stack}),
    charging [counters], and returns the united answers (start
    positions, sorted, unique).  [counters.tuples_read] is then the
    visited-element count of Figures 14-18: stream elements read
    before any value filtering.

    The joins run one after another, in list order.  With a
    [collector] (EXPLAIN ANALYZE; it must snapshot [counters]) each is
    recorded as a [twig-join] node (rows = its answers) over one
    [stream] node per pattern node (rows = stream entries; I/O = that
    stream's scan).  [cancel] is the cooperative cancellation hook,
    called before every join and every stream materialization; it
    aborts the run by raising. *)
val run :
  ?cancel:(unit -> unit) ->
  ?collector:Blas_obs.Analyze.Collector.t ->
  Blas_rel.Counters.t ->
  join list ->
  int list
