(** The labeled document model shared by the naive evaluator, the index
    generator and the query engines: every element node annotated with
    its D-label, source path and text value.  A model is immutable; a
    storage's is a view of its label columns (built from SD), built
    afresh on each call. *)

type node = {
  tag : string;
  data : string option;
      (** concatenated text units directly under the node; [None] when
          there are none (the paper's nullable "data" attribute) *)
  start : int;
  fin : int;
  level : int;
  source_path : string list;  (** root tag first, this node's tag last *)
  children : node list;  (** element children only, document order *)
}

type t = private {
  root : node;
  all : node list;  (** every element node in document order *)
  by_start : node array;  (** the same nodes, for binary search *)
  guide : Blas_xml.Dataguide.t;
}

(** [of_root root] assembles the model around an already labeled root:
    every node in start order (its preorder, so no sort) and the
    DataGuide of their source paths, with per-path node counts and
    fresh P-labels — or [guide], which must count the same paths (a
    stored guide keeps the labels its SP rows carry). *)
val of_root : ?guide:Blas_xml.Dataguide.t -> node -> t

(** [of_tree tree] labels positions exactly like the reference
    [Dlabel.label_tree] kept with the tests: every start tag, end tag and text
    unit occupies one position (1-based); the root is at level 1.
    @raise Invalid_argument if the root is a text node. *)
val of_tree : Blas_xml.Types.tree -> t

(** Strict descendants, in document order. *)
val descendants : node -> node list

(** The node's text value, with [None] read as [""]. *)
val data_or_empty : node -> string

(** The element node whose start tag sits at the given position. *)
val find_by_start : t -> int -> node option

(** [subtree node] rebuilds an XML tree for [node].  Direct text units
    come out as one leading text child (the labeled model concatenates
    them, so the original interleaving is not recoverable). *)
val subtree : node -> Blas_xml.Types.tree
