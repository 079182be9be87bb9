(** Plan execution: materialized, operator-at-a-time evaluation of
    {!Algebra.plan}, charging {!Counters} for base-table reads, joins
    and intermediate results.  Each [Access] reads only its [cols] —
    through a scan cache it may get more, which the operators above,
    addressing columns by name, ignore — and each [Djoin] emits only
    its [out] columns (see {!Algebra.prune}); a [Project] that keeps
    its input's columns in place shares the input's tuples. *)

exception Error of string

(** External scan memo wrapped around indexed base-table accesses
    ([Index_eq] / [Index_range]; full scans are never offered).
    [through table path ~cols ~fetch] returns the pre-residual rows of
    the access and the columns they hold (table order), at least
    [cols]: rows remembered from an earlier access on the same path
    (the executor then charges no read counters for them), or what
    [fetch wider] reads — and charges — for some [wider] covering
    [cols].  The query cache's scan layer installs its exact-interval
    memo here, for both engines. *)
type scan_cache = {
  through :
    Table.t ->
    Algebra.access_path ->
    cols:string list ->
    fetch:(string list -> Tuple.t list) ->
    string list * Tuple.t list;
}

(** [access ?cache ?cols counters table path] — the rows [path]
    selects from [table], before any residual, and the columns they
    hold: exactly [cols] (table order; default all), or more of them
    when [cache] serves or widens the access (an indexed path only).
    @raise Error when [path] selects on a column that does not lead the
    table's cluster key. *)
val access :
  ?cache:scan_cache ->
  ?cols:string list ->
  Counters.t ->
  Table.t ->
  Algebra.access_path ->
  string list * Tuple.t list

(** [run ?counters ?collector plan] executes [plan], one operator at a
    time in plan order, and materializes the result.

    With a [collector] (EXPLAIN ANALYZE), every executed operator
    becomes one {!Blas_obs.Analyze.node} with actual rows, elapsed
    time, seeks and page traffic; the collector must snapshot
    [counters] ({!Counters.analyze_stats}), and the per-node [self]
    charges then sum exactly to this run's totals.

    [cancel] is the cooperative cancellation hook: it is called before
    every operator evaluation and aborts the run by raising — deadline
    enforcement typically passes [fun () -> Blas_par.Token.check token].
    @raise Error on unknown columns, empty unions or schema
    mismatches. *)
val run :
  ?counters:Counters.t ->
  ?cancel:(unit -> unit) ->
  ?cache:scan_cache ->
  ?collector:Blas_obs.Analyze.Collector.t ->
  Algebra.plan ->
  Relation.t
