(** The adaptive optimizer — [Blas.Optimizer].

    Glue between the statistics/planner library ({!Blas_optimizer}) and
    the storage: {!choose} prices the whole plan space — {Split,
    Push-up, Unfold} × {RDBMS, twig} — from the storage's collected
    statistics alone (no data probes; translations read only the
    resident DataGuide) and returns the cheapest candidate, which the
    [Auto2] translator then executes as one sequential plan.

    Statistics are collected at index time ({!Storage.of_doc}),
    persisted in the [.blasdb] catalog, and kept coherent by the update
    protocol: {!note_update} accumulates a staleness counter, and once
    the stale fraction crosses {!Blas_optimizer.Stats.stale_threshold}
    (or an edit rebuilds the tag inventory) the stats are resampled and
    the cache's stats epoch advances, orphaning memoized picks. *)

module Stats = Blas_optimizer.Stats
module Planner = Blas_optimizer.Planner

(** The pick: the cheapest candidate plus the full priced table (sorted
    cheapest-first) for EXPLAIN ANALYZE, the slow-query log and trace
    spans.  [ch_from_stats] is false when the storage has no statistics
    and the choice fell back to the static default (Push-up ×
    RDBMS). *)
type choice = {
  ch_translator : Planner.translator_kind;
  ch_engine : Planner.engine_kind;
  ch_est_cost : float;
  ch_candidates : Planner.candidate list;
  ch_from_stats : bool;
  ch_branches : Suffix_query.t list;
      (** the picked translator's decomposition, which the run executes
          as is — no query is decomposed twice in one run *)
}

(** ["Unfold/twig"] — the spelling used by EXPLAIN, the slow-query
    log and bench output. *)
val label : choice -> string

(** [choose storage q] — price every candidate from statistics and
    return the cheapest.  Statistics-only: no table or document
    access. *)
val choose : Storage.t -> Blas_xpath.Ast.t -> choice

(** Measured cost of an executed plan in the planner's unit, from the
    run's counters — comparable against [ch_est_cost]. *)
val actual_cost : engine:Planner.engine_kind -> Blas_rel.Counters.t -> float

(** The storage's statistics, if collected (or loaded from a catalog). *)
val stats_of : Storage.t -> Stats.t option

(** [refresh ?seed storage] — re-collect statistics from the current
    document (epoch advances, seed is kept unless overridden) and bump
    the cache's stats epoch so memoized [Auto2] picks die.  Forces the
    document model of a disk-backed storage. *)
val refresh : ?seed:int -> Storage.t -> unit

(** The update-protocol hook, called inside {!Update.apply} (and hence
    inside the WAL transaction of a disk-backed storage, so a triggered
    resample is persisted with the edit): accumulates the staleness
    counter and resamples when the edit rebuilt the tag inventory or
    pushed the stale fraction over the threshold. *)
val note_update : Storage.t -> Blas_update.Update_engine.report -> unit
