(** SQL generation and composition (the last two boxes of the query
    translator in the paper's Figure 6): each suffix path subquery
    becomes P-label conditions on one aliased copy of the SP relation —
    an equality for an absolute path, a range otherwise (Proposition
    3.2) — and the recorded relationships become D-join conditions; a
    decomposition with several union branches (Unfold) becomes a
    UNION. *)

(** One SELECT block for one decomposition; [None] when some item is
    provably empty on this document. *)
val branch_to_select :
  Blas_xml.Dataguide.t -> Suffix_query.t -> Blas_rel.Sql_ast.select option

(** [to_sql storage branches] composes the full SQL query plan; [None]
    when every branch is empty. *)
val to_sql : Storage.t -> Suffix_query.t list -> Blas_rel.Sql_ast.t option
