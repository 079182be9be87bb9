(** Query decomposition: the Split and Push-up translation algorithms of
    Sections 4.1.1-4.1.2, plus the schema expansion that powers Unfold
    (Section 4.1.3) and wildcard support.

    Both algorithms interleave descendant-axis elimination (cut at every
    [//] edge) and branch elimination (cut at every branching point) in
    a single walk; Split gives every cut subquery a fresh leading [//],
    Push-up prefixes branch cuts with the full path of their branching
    point.  Descendant cuts always reset to [//], which realizes the
    paper's requirement that descendant elimination precede push-up
    branch elimination. *)

type mode = Split | Pushup

exception Unsupported of string

(** [decompose mode query] splits a wildcard-free query tree into suffix
    path subqueries connected by D-joins.
    @raise Unsupported on wildcard node tests (expand them first).
    @raise Invalid_argument without exactly one return node. *)
val decompose : mode -> Blas_xpath.Ast.t -> Suffix_query.t

(** [expand ~all guide query] enumerates concrete instantiations of
    [query] against the schema: wildcards are always substituted; with
    [~all:true] (the Unfold pipeline) descendant axes are also replaced
    by every concrete child-axis chain.  An empty result means the query
    matches nothing on any document described by [guide]. *)
val expand :
  all:bool -> Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Blas_xpath.Ast.t list

(** Wildcard-only expansion (used by Split and Push-up on queries
    containing [*]). *)
val expand_wildcards :
  Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Blas_xpath.Ast.t list

(** [translate mode ?guide query] — the full pipeline for Split or
    Push-up: wildcards are expanded when a guide is available.
    @raise Unsupported on wildcards without a guide. *)
val translate :
  mode -> ?guide:Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Suffix_query.t list

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
    translation (the [//] edges stay unexpanded; same answers). *)
val unfold : Blas_xml.Dataguide.t -> Blas_xpath.Ast.t -> Suffix_query.t list
