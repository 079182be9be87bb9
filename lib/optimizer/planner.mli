(** Plan enumeration and pricing for the adaptive optimizer.

    The planner is deliberately ignorant of queries and storages: the
    caller (lib/core's [Optimizer]) reduces each candidate translation
    to a {!shape} — statistics-derived cardinalities, no data probes —
    and this module prices every (shape × engine) combination
    in one abstract cost unit and returns the candidates sorted
    cheapest-first with a deterministic tie-break. *)

type engine_kind = Rdbms | Twig
type translator_kind = Split | Pushup | Unfold

(** Statistics-derived size estimates for one translation of a query. *)
type shape = {
  sh_translator : translator_kind;
  sh_visited : float;  (** estimated tuples scanned across all items *)
  sh_join_input : float;  (** estimated tuples entering structural joins *)
  sh_djoins : int;  (** D-joins the translation performs *)
  sh_branches : int;  (** union branches (Unfold enumerations) *)
}

type candidate = {
  cd_translator : translator_kind;
  cd_engine : engine_kind;
  cd_cost : float;
}

val translator_label : translator_kind -> string
val engine_label : engine_kind -> string

(** ["Unfold/twig"] — also the slow-log / EXPLAIN spelling. *)
val label : candidate -> string

(** Price one combination, as one sequential plan.  [page_rows]
    (default 64) is the clustered page density the page term divides
    by — callers pass the active codec's measured density so
    compressed layouts price their cheaper scans. *)
val price : ?page_rows:int -> engine:engine_kind -> shape -> float

(** All (shape × engine) candidates, sorted by cost then (engine,
    translator) so ties resolve to the simplest plan.  Never empty when
    [shapes] is non-empty. *)
val enumerate : ?page_rows:int -> shape list -> candidate list

(** Measured cost of an executed plan in the same unit as {!price},
    computed from executor counters — comparable against [cd_cost] in
    EXPLAIN ANALYZE and the slow-query log.  [seeks] (page-directory descents)
    replaces the estimate's branch term: counters don't attribute work
    to union branches, but every branch restart seeks. *)
val actual_cost :
  engine:engine_kind ->
  tuples:int ->
  pages:int ->
  join_tuples:int ->
  djoins:int ->
  seeks:int ->
  float
