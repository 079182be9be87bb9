(** Execution counters.

    The paper's evaluation reports two engine-independent costs next to
    wall-clock time: the number of joins in a plan and the number of
    elements read ("Visited elements" in Figures 14-18).  Every access
    method and join operator charges these counters.

    Page traffic lives here too: every buffer-pool request made on
    behalf of a run (reads through {!Table}'s access methods, writes
    through {!Table.apply_edits}) is charged to the same vector, so
    [run --stats], EXPLAIN ANALYZE and the disk bench all report one
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

let create () =
  {
    tuples_read = 0;
    index_seeks = 0;
    djoins = 0;
    theta_joins = 0;
    intermediate = 0;
    page_requests = 0;
    page_reads = 0;
    page_writes = 0;
  }

let reset t =
  t.tuples_read <- 0;
  t.index_seeks <- 0;
  t.djoins <- 0;
  t.theta_joins <- 0;
  t.intermediate <- 0;
  t.page_requests <- 0;
  t.page_reads <- 0;
  t.page_writes <- 0

let add ~into t =
  into.tuples_read <- into.tuples_read + t.tuples_read;
  into.index_seeks <- into.index_seeks + t.index_seeks;
  into.djoins <- into.djoins + t.djoins;
  into.theta_joins <- into.theta_joins + t.theta_joins;
  into.intermediate <- into.intermediate + t.intermediate;
  into.page_requests <- into.page_requests + t.page_requests;
  into.page_reads <- into.page_reads + t.page_reads;
  into.page_writes <- into.page_writes + t.page_writes

let joins t = t.djoins + t.theta_joins

let analyze_stats t =
  {
    Blas_obs.Analyze.read = t.tuples_read;
    seeks = t.index_seeks;
    page_requests = t.page_requests;
    page_reads = t.page_reads;
  }

let pp ppf t =
  Format.fprintf ppf
    "read=%d seeks=%d djoins=%d joins=%d intermediate=%d pages=%d req/%d \
     miss/%d written"
    t.tuples_read t.index_seeks t.djoins t.theta_joins t.intermediate
    t.page_requests t.page_reads t.page_writes
