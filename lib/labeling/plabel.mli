(** P-labeling (Section 3.2): interval labels for suffix path
    expressions (Algorithm 1) and integer labels for XML nodes
    (Algorithm 2 / Definition 3.3), such that a node matches a suffix
    path query exactly when its label falls inside the query's interval
    (Proposition 3.2). *)

(** A suffix path expression (Definition 2.3). *)
type suffix_path = {
  absolute : bool;
      (** [true] for a simple path (leading "/"), [false] for a leading
          descendant step "//". *)
  tags : string list;  (** outermost tag first *)
}

val pp_suffix_path : Format.formatter -> suffix_path -> unit

(** [suffix_contains ~outer ~inner] decides containment of suffix paths
    syntactically: [inner <= outer] iff [outer]'s tags are a suffix of
    [inner]'s and [outer] is no stricter about anchoring (Section 2). *)
val suffix_contains : outer:suffix_path -> inner:suffix_path -> bool

(** Algorithm 1: the P-label interval of a suffix path.  [None] when a
    tag is outside the inventory or the path is longer than the table
    height — in both cases the query is empty on any document labeled
    with this table. *)
val suffix_path_interval : Tag_table.t -> suffix_path -> Interval.t option

(** Definition 3.3: the P-label of a node with the given source path
    (root tag first) is the left endpoint of its absolute path's
    interval.
    @raise Invalid_argument if a tag is missing from the table. *)
val node_label : Tag_table.t -> string list -> Bignum.t

(** [alloc_path table source_path] — the P-label for a source path that
    may be newly materialized (an inserted subtree): interval
    subdivision is a pure function of the tag inventory, so allocating
    a label for a new path leaves every existing label valid.
    [`Unknown_tag] / [`Too_deep] signal that the inventory cannot label
    the path and must be rebuilt. *)
val alloc_path :
  Tag_table.t ->
  string list ->
  (Bignum.t, [ `Unknown_tag of string | `Too_deep ]) result

(** Algorithm 2: label every element node in one depth-first pass with
    the interval stack.  Returns document order as
    [(plabel, source_path, node)].  Agrees with {!node_label} on every
    node (checked by the test suite).
    @raise Invalid_argument if the tree uses a tag missing from the
    table. *)
val label_tree :
  Tag_table.t ->
  Blas_xml.Types.tree ->
  (Bignum.t * string list * Blas_xml.Types.tree) list
