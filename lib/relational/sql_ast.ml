(** Abstract syntax for the SQL subset the BLAS translators emit:
    conjunctive select-project-join blocks over aliased tables, combined
    with UNION (Unfold needs it).  Expressions cover column references,
    integer and string literals, and the [col + k] arithmetic
    used by level-gap predicates. *)

type expr =
  | Col of string  (** possibly qualified, e.g. "T1.start" *)
  | Int of int
  | Str of string
  | Add of expr * expr
  | Sub of expr * expr

type cmp = Algebra.cmp = Eq | Ne | Lt | Le | Gt | Ge

type cond = { lhs : expr; cmp : cmp; rhs : expr }

type projection =
  | Star
  | Columns of string list  (** qualified column names *)

type select = {
  projection : projection;
  from : (string * string) list;  (** (table, alias); alias defaults to table *)
  where : cond list;  (** implicit conjunction *)
}

type t =
  | Select of select
  | Union of t list  (** duplicate-preserving UNION ALL semantics *)

let rec selects = function
  | Select s -> [ s ]
  | Union qs -> List.concat_map selects qs

(** Number of binary joins implied by the FROM clauses: each block with
    [k] tables contributes [k - 1]. *)
let join_count q =
  List.fold_left (fun acc s -> acc + max 0 (List.length s.from - 1)) 0 (selects q)
