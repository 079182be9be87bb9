(** The per-storage query cache — [Blas.Cache].

    Two layers, each one {!Blas_cache.Lru}:

    - a {b whole-query result memo} keyed by
      [(engine, translator, query)], remembering the answer set plus the
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

    One invalidation rule serves both layers: an entry dies when an
    edit touches a P-label inside its footprint (result) or its
    interval (scan).  Every row an edit changes carries such a P-label
    — inserted, removed, relabeled and re-valued nodes all do — so
    nothing else can make an entry stale.

    The cache starts {e disabled}: the library-level default keeps every
    existing entry point bit-identical in cost and counters (the
    parallel determinism suite depends on that).  The CLI and the
    repeated-workload bench opt in per storage with {!set_enabled}.

    Translations are not memoized: translating and compiling a query
    costs about 0.01 ms, against 0.5–1.4 ms to execute it on the
    perfbench workloads.

    Epochs: the schema epoch advances whenever the translation inputs
    change — a tag-inventory rebuild or any edit that changes the
    DataGuide's path set — which orphans (and flushes) result entries
    wholesale; scan entries survive schema changes (their keys depend
    only on the tag inventory) and die individually through
    {!invalidate}. *)

type t

(** A memoized whole-query answer. *)
type result_entry = {
  r_starts : int list;
  r_plan_djoins : int;
  r_sql : Blas_rel.Sql_ast.t option;
  r_footprint : Blas_label.Interval.t list;
      (** the P-intervals of every item the decomposition scans *)
}

val create : ?stripes:int -> ?capacity_bytes:int -> unit -> t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** Flushes every layer (counts as invalidations) and advances the
    schema epoch, part of every result key. *)
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

(* Scan cache *)

(** [find_scan t interval ~cols] — the columns (table order) and rows
    an earlier SP access on exactly [interval] fetched, before any
    value predicate; [None] when there is no entry or it lacks one of
    [cols]. *)
val find_scan :
  t ->
  Blas_label.Interval.t ->
  cols:string list ->
  (string list * Blas_rel.Tuple.t list) option

(** [put_scan t interval ~benefit ~cols rows] admits a completed access
    whose rows hold the columns [cols], replacing any entry for
    [interval]; [benefit] is the pages a hit saves. *)
val put_scan :
  t ->
  Blas_label.Interval.t ->
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
  Blas_label.Interval.t ->
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
  plabels:Blas_label.Bignum.t list ->
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
