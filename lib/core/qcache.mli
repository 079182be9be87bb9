(** The per-storage query cache — [Blas.Cache].

    Two layers, both built on {!Blas_cache}:

    - a {b whole-query result memo} keyed by
      [(engine, translator, query)], remembering the answer set plus the
      P-label {e footprint} of the decomposition's items — the update
      protocol kills an entry only when a touched P-label lands in its
      footprint;
    - the {b semantic scan cache} ({!Blas_cache.Semantic}) shared by
      both engines' suffix-path scans, serving exact and containment
      hits.

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
    wholesale; semantic entries survive schema changes (their
    signatures depend only on the tag inventory) and die individually
    through {!invalidate}. *)

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
    schema epoch. *)
val clear : t -> unit

val schema_epoch : t -> int

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

(* Semantic scan cache *)

val semantic : t -> Blas_cache.Semantic.t

(** [invalidate t ~full ~schema_changed ~plabels ~drange] — the update
    protocol.  [full] flushes everything (labels were recomputed);
    [schema_changed] flushes results and advances the epoch
    (the DataGuide changed, so decompositions may differ); [plabels]
    and [drange] kill the semantic and result entries the edit can
    reach, leaving the rest warm. *)
val invalidate :
  t ->
  full:bool ->
  schema_changed:bool ->
  plabels:Blas_label.Bignum.t list ->
  drange:(int * int) option ->
  unit

(* Reporting *)

type stats = {
  results : Blas_cache.Stats.snapshot;
  streams : Blas_cache.Stats.snapshot;
}

val stats : t -> stats

(** Fieldwise sum of the two layers. *)
val totals : stats -> Blas_cache.Stats.snapshot

(** Result + stream hits over result + stream lookups — the headline
    rate. *)
val hit_rate : stats -> float

val diff_stats : before:stats -> after:stats -> stats

val pp_stats : Format.formatter -> stats -> unit

(** Accounting check for the [-j N] stress suite.
    @raise Invalid_argument on a torn stripe. *)
val validate : t -> unit
