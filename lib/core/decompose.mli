(** Query decomposition: the Split and Push-up translation algorithms of
    Sections 4.1.1-4.1.2, plus the schema expansion that powers Unfold
    (Section 4.1.3).

    Both algorithms interleave descendant-axis elimination (cut at every
    [//] edge) and branch elimination (cut at every branching point) in
    a single walk; Split gives every cut subquery a fresh leading [//],
    Push-up prefixes branch cuts with the full path of their branching
    point.  Descendant cuts always reset to [//], which realizes the
    paper's requirement that descendant elimination precede push-up
    branch elimination.  A wildcard [*] needs no schema: it is an item
    of its own over every element (the relative path with no tags), and
    the subqueries below it start over with [//]. *)

type mode = Split | Pushup

(** [decompose mode query] splits a query tree into suffix path
    subqueries connected by D-joins.
    @raise Invalid_argument without exactly one return node, or on a
    leading absolute [/*], which names the root tag ({!translate}). *)
val decompose : mode -> Blas_xpath.Ast.t -> Suffix_query.t

(** [expand guide query] enumerates concrete instantiations of [query]
    against the schema: wildcards are substituted and descendant axes
    replaced by every concrete child-axis chain (the Unfold pipeline).
    An empty result means the query matches nothing on any document
    described by [guide]. *)
val expand : Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Blas_xpath.Ast.t list

(** [translate mode ~guide query] — the full pipeline for Split or
    Push-up: {!decompose}, after a leading absolute [/*] takes the
    guide's root tag (no decomposition on an empty guide). *)
val translate :
  mode -> guide:Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Suffix_query.t list

(** The one expansion bound: past this many union branches a full
    (Unfold) expansion is not built. *)
val expansion_bound : int

(** The Unfold translator: full expansion followed by Push-up
    decomposition of each branch — only equality selections and
    exact-gap D-joins remain (Section 4.2).  [None] past
    {!expansion_bound} branches; the count stops at bound + 1, so an
    explosive expansion is never enumerated. *)
val unfold_opt :
  Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Suffix_query.t list option

(** {!unfold_opt}, falling back past the bound to the Push-up
    translation (the [//] edges and [*] steps stay unexpanded; same
    answers). *)
val unfold : Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Suffix_query.t list
