(** D-labels: the [<start, end, level>] interval labeling of Definition
    3.1.  [start] and [end] are the positions of a node's start and end
    tags, where every start tag, end tag and text unit occupies one
    position (1-based); [level] is the length of the path from the root
    (the root has level 1).

    The definition written out on its own, kept as the reference the
    label columns' positions ({!Blas_xpath.Doc.of_tree}, the index
    build) are checked against ([test_label], [test_xpath]). *)

type t = { start : int; fin : int; level : int }

(** @raise Invalid_argument if [start > fin] or [level < 1]. *)
val make : start:int -> fin:int -> level:int -> t

val compare_start : t -> t -> int

val equal : t -> t -> bool

(** Definition 3.1, Descendant: strict interval containment. *)
val is_descendant : anc:t -> desc:t -> bool

(** Definition 3.1, Child: a descendant exactly one level down. *)
val is_child : parent:t -> child:t -> bool

(** Definition 3.1, Nonoverlap. *)
val disjoint : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [label_tree tree] assigns a D-label to every element node (attribute
    nodes included), returning document order with each node's source
    path (root tag first). *)
val label_tree :
  Blas_xml.Types.tree -> (t * string list * Blas_xml.Types.tree) list
