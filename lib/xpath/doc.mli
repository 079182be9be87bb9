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
  by_start : node array array;
      (** the same nodes cut into runs of consecutive starts, for
          binary search; an edit copies only the run directory and the
          runs it touches *)
  guide : Blas_xml.Dataguide.t;
  tails : node list array;
      (** for each run of [by_start], the suffix of [all] from its
          first node *)
}

(** [of_root root] assembles the model around an already labeled root:
    every node in start order (its preorder, so no sort) and the
    DataGuide of their source paths, with per-path node counts and
    fresh P-labels — or [guide], which must count the same paths (a
    stored guide keeps the labels its SP rows carry). *)
val of_root : ?guide:Blas_xml.Dataguide.t -> node -> t

(** [of_tree tree] labels positions exactly like
    {!Blas_label.Dlabel.label_tree}: every start tag, end tag and text
    unit occupies one position (1-based); the root is at level 1.
    @raise Invalid_argument if the root is a text node. *)
val of_tree : Blas_xml.Types.tree -> t

(** The number of element nodes. *)
val node_count : t -> int

(** Strict descendants, in document order. *)
val descendants : node -> node list

(** The node's text value, with [None] read as [""]. *)
val data_or_empty : node -> string

(** The element node whose start tag sits at the given position. *)
val find_by_start : t -> int -> node option

(** [replace t ~at ~by ?changed ()] — the model after an edit that
    gives node [at] the new record [by] (same start) and, if [changed]
    is [(lo, hi)], replaces the nodes starting in [lo..hi] — a range
    inside [at]'s interval, say a deleted, inserted or renumbered
    subtree — by [by]'s nodes starting there.

    The cost is what the edit touches: [at]'s ancestors get new records
    (every other node stays physically the same), [by_start] gets a new
    run directory and rebuilds only the runs around the change, [all]
    is rebuilt only up to the end of those runs (its list cells before
    the change must be new, since the root's record is), and the guide
    recounts the nodes that left or arrived, so a path leaves it with
    its last node and a new path gets a P-label.
    [t] itself stays valid.
    @raise Invalid_argument if [by] starts elsewhere than [at] or [at]
    is not in [t]. *)
val replace : t -> at:node -> by:node -> ?changed:int * int -> unit -> t

(** [subtree node] rebuilds an XML tree for [node].  Direct text units
    come out as one leading text child (the labeled model concatenates
    them, so the original interleaving is not recoverable). *)
val subtree : node -> Blas_xml.Types.tree
