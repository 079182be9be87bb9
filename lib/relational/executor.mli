(** Plan execution: materialized, operator-at-a-time evaluation of
    {!Algebra.plan}, charging {!Counters} for base-table reads, joins
    and intermediate results. *)

exception Error of string

(** External scan memo consulted before indexed base-table accesses
    ([Index_eq] / [Index_range]; full scans are never offered).
    [probe] may return the pre-residual tuple list of an identical
    earlier access — the executor then charges no read counters for
    it; [store] is offered what an actual access fetched.  The query
    cache's scan layer installs its exact-interval probe here, for both
    engines. *)
type scan_cache = {
  probe : Table.t -> Algebra.access_path -> Tuple.t list option;
  store : Table.t -> Algebra.access_path -> Tuple.t list -> unit;
}

(** [access ?cache counters table path] — the tuples [path] selects
    from [table], before any residual: served by [cache] when it holds
    them, fetched (and offered to [cache]) otherwise.
    @raise Error when [path] selects on a column that does not lead the
    table's cluster key. *)
val access :
  ?cache:scan_cache ->
  Counters.t ->
  Table.t ->
  Algebra.access_path ->
  Tuple.t list

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
