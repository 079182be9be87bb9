(** The per-storage query cache — [Blas.Cache].

    Three layers, each one {!Blas_cache.Lru}:

    - a {b whole-query result memo} keyed by
      [(engine, translator, query)], remembering the answer set, the
      [Auto2] pick that produced it (so a hit plans nothing) and the
      P-label {e footprint} of the decomposition's items;
    - a {b scan cache} keyed by the P-interval of an SP access (a point
      for an absolute path), holding the rows the access fetched before
      any value predicate: every column but the P-label, which it holds
      only when the filling access asked for it (no generated plan
      does).  A probe is served when the entry's columns cover its
      own, and gets the entry's rows as they are, wider columns
      included; a probe for a column the entry lacks misses, and its
      fetch replaces the entry.  So every probe of a generated plan,
      from either engine, is served by the entry of its interval, as
      when entries held whole rows; a miss decodes [start], [end],
      [level] and [data] whatever its plan reads.  Interval hits are
      exact.
    - a {b plan memo} keyed by [(translator, engine, query)] (the
      parsed query, so a run with the result memo off never prints
      it), holding the whole planning step's output: the [Auto2] pick
      with its priced candidates, the branches, the SQL and the
      compiled plan.

    One invalidation rule serves the first two layers: an entry dies
    when an edit touches a P-label inside its footprint (result) or
    its interval (scan).  Every row an edit changes carries such a
    P-label — inserted, removed, relabeled and re-valued nodes all do
    — so nothing else can make an entry stale.

    The result and scan layers start {e disabled}: the library-level
    default keeps every existing entry point bit-identical in cost and
    counters (the parallel determinism suite depends on that).  The CLI
    and the repeated-workload bench opt in per storage with
    {!set_enabled}.

    The plan memo is always on: a plan changes no execution counter, so
    reusing one cannot move a run's cost.  A plan reads more of the
    storage than a footprint can name — the resident DataGuide, the
    optimizer statistics, SP's average rows per page (which [Auto2]
    prices with, and which edits that add no path still move) and the
    tables themselves (a compiled plan holds them, and reopening or
    relabeling a database replaces them) — so it is not invalidated
    piecemeal: {!flush_plans} empties it after every edit that moves
    the guide's paths or labels or SP's rows per page (and every edit
    that raises), every statistics install and every reload of the
    tables.  On the
    perfbench local-cold workload (traced, 2-vCPU VM) choosing cost
    0.010 ms and translating plus compiling 0.009 ms per query, against
    a median query of about 0.07 ms.

    Epochs: the schema epoch advances whenever the translation inputs
    change — any edit that changes the DataGuide's path set — which
    orphans (and flushes) result entries wholesale.  Scan entries
    survive schema changes and die individually through {!invalidate}:
    an entry holds exactly the rows whose P-label lies in its interval,
    and a new path's nodes carry labels that were free before, which
    the edit reports.  A P-label respread flushes both layers. *)

type t

(** [Auto2]'s pick: the cheapest candidate plus the full priced table
    (sorted cheapest-first) for EXPLAIN ANALYZE, the slow-query log and
    trace spans.  Defined here, below the optimizer, because the plan
    memo holds it; [Blas.Optimizer] re-exports it. *)
type choice = {
  ch_translator : Blas_optimizer.Planner.translator_kind;
  ch_engine : Blas_optimizer.Planner.engine_kind;
  ch_est_cost : float;
  ch_candidates : Blas_optimizer.Planner.candidate list;
  ch_from_stats : bool;
      (** false when the storage has no statistics and the choice fell
          back to the static default (Push-up × RDBMS) *)
  ch_branches : Suffix_query.t list;
      (** the picked translator's decomposition, which the run executes
          as is — no query is decomposed twice in one run *)
}

(** A memoized whole-query answer. *)
type result_entry = {
  r_starts : int list;
  r_plan_djoins : int;
  r_sql : Blas_rel.Sql_ast.t option;
  r_choice : choice option;  (** the [Auto2] pick that produced it *)
  r_footprint : (int * int) list;
      (** the P-intervals of every item the decomposition scans *)
}

(** One planning step's output, memoized per storage state. *)
type plan = {
  p_choice : choice option;  (** the [Auto2] pick; [None] otherwise *)
  p_branches : Suffix_query.t list option;
      (** the decomposition that runs; [None] for the D-labeling
          baseline *)
  p_sql : Blas_rel.Sql_ast.t option;
      (** the generated SQL, built when the plan runs on or was asked
          for on the RDBMS engine; [None] when provably empty or not
          built *)
  p_compiled : Blas_rel.Algebra.plan option;  (** [p_sql] compiled *)
}

(** Every layer shares [stripes] (default 8) and is bounded by
    [capacity_bytes] (default 16 MiB) of estimated weight. *)
val create : ?stripes:int -> ?capacity_bytes:int -> unit -> t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** Flushes the result and scan layers (counts as invalidations) and
    advances the schema epoch, part of every result key.  The plan
    memo has its own flush, {!flush_plans}. *)
val clear : t -> unit

(** The statistics epoch, part of every result key: Auto2's picks
    depend on the optimizer statistics, so a resample must orphan the
    answers memoized under them.  Bumped by
    [Blas.Optimizer.refresh]. *)
val stats_epoch : t -> int

val bump_stats_epoch : t -> unit

(* Whole-query result memo *)

val result_key : t -> engine:string -> translator:string -> query:string -> string

val find_result : t -> string -> result_entry option

val put_result : t -> string -> benefit:int -> result_entry -> unit

(* Plan memo *)

(** [find_plan t ~translator ~engine q] — the plan memoized for query
    [q] (compared structurally) under the translator and engine
    names. *)
val find_plan :
  t -> translator:string -> engine:string -> Blas_xpath.Ast.t -> plan option

val put_plan :
  t -> translator:string -> engine:string -> Blas_xpath.Ast.t -> plan -> unit

(** Empties the plan memo.  Every change to a plan's inputs calls it:
    an edit that moves the guide's paths or P-labels or SP's rows per
    page, or raises ([Blas.Update.apply]), each statistics install
    ([Blas.Storage.set_ostats]) and each reload of a database's
    components (open, abort: [Blas.Database]).  Code that assigns a
    storage's mutable fields directly must call it too, and a copy of
    a storage record that swaps a table needs a cache of its own. *)
val flush_plans : t -> unit

(* Scan cache *)

(** [find_scan t interval ~cols] — the columns (table order) and rows
    an earlier SP access on exactly [interval] fetched, before any
    value predicate; [None] when there is no entry or it lacks one of
    [cols]. *)
val find_scan :
  t ->
  int * int ->
  cols:string list ->
  (string list * Blas_rel.Tuple.t list) option

(** [put_scan t interval ~benefit ~cols rows] admits a completed access
    whose rows hold the columns [cols], replacing any entry for
    [interval]; [benefit] is the pages a hit saves. *)
val put_scan :
  t ->
  int * int ->
  benefit:int ->
  cols:string list ->
  Blas_rel.Tuple.t list ->
  unit

(** [scan t interval ~table_cols ~cols ~benefit ~fetch] — the columns
    and rows of an SP access on [interval] reading at least [cols]: the
    entry's when it covers them; otherwise [fetch wide] reads every
    column of [table_cols] but an unrequested [plabel] ([wide] in
    [table_cols] order), and those rows replace the entry, admitted
    with [benefit rows]. *)
val scan :
  t ->
  int * int ->
  table_cols:string list ->
  cols:string list ->
  benefit:(Blas_rel.Tuple.t list -> int) ->
  fetch:(string list -> Blas_rel.Tuple.t list) ->
  string list * Blas_rel.Tuple.t list

(** [invalidate t ~full ~schema_changed ~plabels] — the update
    protocol.  [full] flushes everything (labels were recomputed);
    [schema_changed] flushes results and advances the epoch (the
    DataGuide changed, so decompositions may differ); [plabels] kill
    the result and scan entries whose intervals contain one of them,
    leaving the rest warm. *)
val invalidate :
  t ->
  full:bool ->
  schema_changed:bool ->
  plabels:int list ->
  unit

(* Reporting *)

type stats = {
  results : Blas_cache.Stats.snapshot;
  streams : Blas_cache.Stats.snapshot;  (** the scan cache *)
}

val stats : t -> stats

(** Fieldwise sum of the two layers. *)
val totals : stats -> Blas_cache.Stats.snapshot

(** Result + stream hits over result + stream lookups — the headline
    rate. *)
val hit_rate : stats -> float

val diff_stats : before:stats -> after:stats -> stats

val pp_stats : Format.formatter -> stats -> unit

(** Accounting check for the multi-domain stress suite.
    @raise Invalid_argument on a torn stripe. *)
val validate : t -> unit
