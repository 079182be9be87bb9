(** Execution counters.

    The paper's evaluation reports two engine-independent costs next to
    wall-clock time: the number of joins in a plan and the number of
    elements read ("Visited elements" in Figures 14-18).  Every access
    method and join operator charges these counters; buffer-pool page
    traffic is charged to the same vector, so every report shares one
    coherent cost model. *)

type t = {
  mutable tuples_read : int;  (** tuples fetched from base tables *)
  mutable index_seeks : int;  (** page-directory descents *)
  mutable djoins : int;  (** structural (D-) joins executed *)
  mutable theta_joins : int;  (** generic joins executed *)
  mutable intermediate : int;  (** tuples materialized between operators *)
  mutable page_requests : int;  (** buffer-pool page requests *)
  mutable page_reads : int;  (** pool misses — pages read from the store *)
  mutable page_writes : int;  (** pages written through the pool *)
}

val create : unit -> t

val reset : t -> unit

(** [add ~into t] accumulates [t] into [into]. *)
val add : into:t -> t -> unit

val joins : t -> int

(** The current values EXPLAIN ANALYZE diffs around each operator. *)
val analyze_stats : t -> Blas_obs.Analyze.stats

val pp : Format.formatter -> t -> unit
