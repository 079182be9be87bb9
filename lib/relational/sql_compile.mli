(** Compilation of {!Sql_ast} queries into executable {!Algebra} plans —
    the planning half of the RDBMS query engine.

    The planner performs the two optimizations the paper's figures
    depend on: access-path selection (equality and range predicates on
    the clustering column become page-directory lookups; every other
    predicate stays residual), and D-join recognition (the cross-table pattern
    [A.start < B.start and A.end > B.end], optionally with a level-gap
    equality or lower bound, becomes a structural-join operator).
    Unrecognized join shapes fall back to theta joins, which are slower
    but always correct.  Finally the required-columns pass
    ({!Algebra.prune}) narrows every access to the columns the plan
    reads above it. *)

exception Error of string

(** [compile ~catalog query] plans [query] against the tables resolved
    by [catalog].
    @raise Error on unsupported shapes or unknown tables. *)
val compile : catalog:(string -> Table.t option) -> Sql_ast.t -> Algebra.plan
