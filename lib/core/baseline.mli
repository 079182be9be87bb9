(** The conventional D-labeling-only approach the paper compares against
    (Sections 1 and 5): every query node becomes one aliased copy of the
    SD relation selected by tag, and every query edge becomes a D-join —
    [(l - 1)] joins for a query with [l] tags. *)

(** The D-labeling SQL plan over SD.  Wildcard nodes contribute no tag
    condition.
    @raise Invalid_argument if the query has no return node. *)
val to_sql : Blas_xpath.Ast.t -> Blas_rel.Sql_ast.t

(** The same plan as a twig pattern over per-tag D-label streams, for
    the holistic twig join engine.  Materializing the streams charges
    [counters]; [wrap] is the EXPLAIN ANALYZE hook installed around
    each pattern node's construction. *)
val to_pattern :
  wrap:Engine_twig.wrap ->
  Storage.t ->
  Blas_rel.Counters.t ->
  Blas_xpath.Ast.t ->
  Blas_twig.Pattern.node
