(** The incremental update engine: insert/delete subtrees and replace
    text values on a built bi-labeled index, maintaining D-labels (gap
    allocation with localized renumbering as the fallback), P-labels
    (interval subdivision; inventory rebuild only for new tags or
    excess depth), the labeled document model with its DataGuide, and
    the clustered SP/SD relations and their page directories through
    the buffer pool. *)

(** The mutable components of one storage instance ({!Blas.Update}
    binds them to [Storage.t]). *)
type target = {
  mutable doc : Blas_xpath.Doc.t;
  mutable table : Blas_label.Tag_table.t;
  mutable sp : Blas_rel.Table.t;
  mutable sd : Blas_rel.Table.t;
  pool : Blas_rel.Buffer_pool.t;
}

(** What this edit can have made stale, for the query cache: entries
    outside the reach described here are provably still correct.
    [inv_plabels] are the P-labels of every node the edit created,
    removed, moved or re-valued — every SP/SD row the edit changed
    carries one of them. *)
type invalidation = {
  inv_full : bool;  (** labels were recomputed wholesale — flush everything *)
  inv_schema_changed : bool;
      (** the DataGuide's path set changed, so decompositions may differ *)
  inv_plabels : Blas_label.Bignum.t list;
}

type report = {
  nodes_inserted : int;
  nodes_deleted : int;
  nodes_relabeled : int;  (** existing nodes whose D-label moved *)
  plabels_allocated : int;  (** P-labels computed for this edit *)
  pages_written : int;  (** pages written through the buffer pool *)
  table_rebuilt : bool;
      (** the tag inventory changed, so every P-label was recomputed *)
  invalidation : invalidation;  (** what the query cache must drop *)
}

val pp_report : Format.formatter -> report -> unit

(** [set_metrics (Some registry)] installs the registry that receives
    per-edit metrics: [blas.update.ops] and [blas.update.latency_ns]
    (labelled by op), [blas.update.pages_written],
    [blas.update.nodes_relabeled], [blas.update.relabel_escalations]
    (labelled localized/whole) and [blas.update.table_rebuilds];
    [set_metrics None] (the default) disables recording. *)
val set_metrics : Blas_obs.Metrics.t option -> unit

(** [insert_subtree t ~parent ~pos tree] inserts [tree] as the [pos]-th
    element child of the node whose start position is [parent].
    D-labels come from the gap between the new subtree's neighbours
    when it is wide enough; otherwise the smallest enclosing ancestor
    interval with enough capacity is renumbered (worst case: the whole
    document, four positions per slot; see {!Gap_alloc.fresh}).
    @raise Invalid_argument on an unknown parent, an out-of-range
    [pos], or a text-node root. *)
val insert_subtree :
  target -> parent:int -> pos:int -> Blas_xml.Types.tree -> report

(** [delete_subtree t ~start] removes the node at [start] and all its
    descendants.  Never relabels: the freed positions become gap budget
    for later inserts.
    @raise Invalid_argument on an unknown position or the root. *)
val delete_subtree : target -> start:int -> report

(** [replace_text t ~start data] replaces the text value of the node at
    [start] ([None] clears it).
    @raise Invalid_argument on an unknown position. *)
val replace_text : target -> start:int -> string option -> report

(** [gap_budget doc] — [(free, span)]: positions inside the root's
    interval carrying no element label vs. the interval's size; free
    positions are what inserts can consume before any renumbering. *)
val gap_budget : Blas_xpath.Doc.t -> int * int
