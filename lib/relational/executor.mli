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

(** [access ?par ?cache counters table path] — the tuples [path]
    selects from [table], before any residual: served by [cache] when
    it holds them, fetched (and offered to [cache]) otherwise.  [par]
    chunks an index fetch over a domain pool.
    @raise Error when [path] selects on a column that does not lead the
    table's cluster key. *)
val access :
  ?par:Blas_par.Pool.t ->
  ?cache:scan_cache ->
  Counters.t ->
  Table.t ->
  Algebra.access_path ->
  Tuple.t list

(** [run ?counters ?pool ?collector plan] executes [plan] and
    materializes the result.  With a multi-domain [pool], union
    branches, join sides, index fetches and the structural-join sweep
    evaluate concurrently; the result relation (tuples and order) and
    the counter totals are identical to the sequential run, except that
    page {e reads} can differ when concurrent regions race into the
    shared buffer pool.

    With a [collector] (EXPLAIN ANALYZE), every executed operator
    becomes one {!Blas_obs.Analyze.node} with actual rows, elapsed
    time, seeks and page traffic; the collector must snapshot
    [counters] ({!Counters.analyze_stats}), and the per-node [self]
    charges then sum exactly to this run's totals.  A collector forces
    a sequential run ([pool] is ignored): its frames diff one shared
    counter snapshot, which concurrent evaluation would tear.

    [cancel] is the cooperative cancellation hook: it is called before
    every operator evaluation (including operators of concurrent plan
    regions) and aborts the run by raising — deadline enforcement
    typically passes [fun () -> Blas_par.Pool.Token.check token].
    @raise Error on unknown columns, empty unions or schema
    mismatches. *)
val run :
  ?counters:Counters.t ->
  ?cancel:(unit -> unit) ->
  ?pool:Blas_par.Pool.t ->
  ?cache:scan_cache ->
  ?collector:Blas_obs.Analyze.Collector.t ->
  Algebra.plan ->
  Relation.t
