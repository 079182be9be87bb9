(** The labeled document model shared by the naive evaluator, the index
    generator and the query engines: every element node annotated with
    its D-label, source path and text value. *)

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

(** [make ~root ~all ~guide] assembles a document model; [all] must be
    in document (start) order. *)
val make :
  root:node -> all:node list -> guide:Blas_xml.Dataguide.t -> t

(** [of_root root] assembles the model around an already labeled root:
    every node in start order and the DataGuide of their source paths.
    O(n log n). *)
val of_root : node -> t

(** [of_tree tree] labels positions exactly like
    {!Blas_label.Dlabel.label_tree}: every start tag, end tag and text
    unit occupies one position (1-based); the root is at level 1.
    @raise Invalid_argument if the root is a text node. *)
val of_tree : Blas_xml.Types.tree -> t

val node_count : t -> int

(** Strict descendants, in document order. *)
val descendants : node -> node list

val dlabel : node -> Blas_label.Dlabel.t

(** The node's text value, with [None] read as [""]. *)
val data_or_empty : node -> string

(** The element node whose start tag sits at the given position. *)
val find_by_start : t -> int -> node option

(** [subtree node] rebuilds an XML tree for [node].  Direct text units
    come out as one leading text child (the labeled model concatenates
    them, so the original interleaving is not recoverable). *)
val subtree : node -> Blas_xml.Types.tree
