(** Incremental updates on a built storage — insert/delete subtrees and
    replace text values in place, maintaining both labelings (D-labels
    by gap allocation with a narrowest-window renumber as fallback, P-labels
    by gaps in the guide's reversed-path order), the DataGuide, the
    label columns, and the clustered SP/SD relations and their page
    directories through the buffer pool.  See {!Blas_update.Update_engine} for the mechanics. *)

(** What the edit invalidated in the storage's query cache (see
    {!Blas_update.Update_engine.invalidation}). *)
type invalidation = Blas_update.Update_engine.invalidation = {
  inv_full : bool;
  inv_schema_changed : bool;
  inv_plabels : int list;
}

type report = Blas_update.Update_engine.report = {
  nodes_inserted : int;
  nodes_deleted : int;
  nodes_relabeled : int;  (** existing nodes whose D-label moved *)
  plabels_allocated : int;  (** P-labels computed for this edit *)
  pages_written : int;  (** pages written through the buffer pool *)
  invalidation : invalidation;  (** what the query cache dropped *)
}

val pp_report : Format.formatter -> report -> unit

(** [insert_subtree storage ~parent ~pos tree] inserts [tree] as the
    [pos]-th element child of the node starting at position [parent].
    @raise Invalid_argument on an unknown parent, an out-of-range
    [pos], or a text-node root. *)
val insert_subtree :
  Storage.t -> parent:int -> pos:int -> Blas_xml.Types.tree -> report

(** [delete_subtree storage ~start] removes the node at [start] and all
    its descendants; the freed positions become gap budget.
    @raise Invalid_argument on an unknown position or the root. *)
val delete_subtree : Storage.t -> start:int -> report

(** [replace_text storage ~start data] replaces the node's text value
    ([None] clears it).
    @raise Invalid_argument on an unknown position. *)
val replace_text : Storage.t -> start:int -> string option -> report

(** [gap_budget storage] — [(free, span)]: unlabeled positions inside
    the root's interval vs. the interval's size — the insert headroom
    before any renumbering (read from the label columns). *)
val gap_budget : Storage.t -> int * int
