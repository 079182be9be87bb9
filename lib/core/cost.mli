(** Cost estimation for translated plans, in the paper's currencies
    (visited tuples / disk pages, and D-joins), priced from collected
    statistics for the [Auto2] planner; plus the clustered page
    arithmetic the cache layer scores memoized scans with. *)

(** The clustered page density [storage]'s active layout actually
    achieves (SP's measured rows per page) — what the model
    prices a page read at.  Grows under a compressing codec. *)
val model_page_rows : Storage.t -> int

(** [pages_for tuples ~page_rows] — conservative page count of a
    clustered fetch of [tuples] contiguous rows.  The cache layer uses
    this as the benefit score of a memoized scan. *)
val pages_for : int -> page_rows:int -> int

(** Selectivity-scaled estimate of a translation, priced purely from
    collected statistics ({!Blas_optimizer.Stats}) — computing one
    touches no tables, which is what lets the [Auto2] translator
    enumerate the whole plan space without data probes. *)
type estimate = {
  e_visited : float;  (** tuples the items will scan *)
  e_selected : float;  (** of those, survivors of value predicates *)
  e_join_input : float;  (** selected tuples entering structural joins *)
  e_djoins : int;
  e_branches : int;
}

val zero_estimate : estimate

val add_estimate : estimate -> estimate -> estimate

(** One decomposition branch, from statistics alone: populations from
    [guide], the storage's counted guide, and selectivities from the
    sampled statistics. *)
val estimate_branch :
  guide:Blas_xml.Dataguide.t -> Blas_optimizer.Stats.t -> Suffix_query.t -> estimate

(** A whole translation (union of branches), from statistics alone. *)
val estimate_decomposition :
  guide:Blas_xml.Dataguide.t -> Blas_optimizer.Stats.t -> Suffix_query.t list -> estimate

val pp_estimate : Format.formatter -> estimate -> unit
