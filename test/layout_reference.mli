(** The index build's table rows as they were taken from the labeled
    document model ({!Blas_xpath.Doc.t}) before the build went through
    the label columns, kept as the reference the columns' bucket passes
    ({!Blas_update.Columns.tables}) are checked against ([test_codec]). *)

(** [clustered_rows doc] — [doc]'s SP rows (P-labels from [doc]'s guide)
    and SD rows, each in its cluster order: the nodes in start order
    bucketed by P-label and by tag, buckets in lead order. *)
val clustered_rows : Blas_xpath.Doc.t -> Blas_rel.Tuple.t list * Blas_rel.Tuple.t list

(** [tables store doc] bulk-loads {!clustered_rows} into [store]. *)
val tables : Blas_rel.Page_store.t -> Blas_xpath.Doc.t -> Blas_rel.Table.t * Blas_rel.Table.t
