(** A DataGuide: the trie of all source paths occurring in a document.

    The Unfold translator (paper Section 4.1.3) needs schema information
    to enumerate the simple paths matched by [p//q]; a DataGuide built
    from the instance is a sound and complete substitute for a DTD for
    that purpose. *)

type t

val empty : t

(** [add_path guide path] counts one more node with source path [path]
    (root tag first), adding the path if it is new. *)
val add_path : t -> string list -> t

(** [remove_path guide path] counts one node fewer on [path]; the path
    leaves the guide with its last node.
    @raise Invalid_argument if no node has that path. *)
val remove_path : t -> string list -> t

(** [of_tree tree] builds the DataGuide of all source paths in
    [tree], counting the elements on each. *)
val of_tree : Types.tree -> t

(** [find_child guide tag] descends one level. *)
val find_child : t -> string -> t option

(** [fold_children f guide acc] folds [f tag child] over the immediate
    children, in sorted tag order. *)
val fold_children : (string -> t -> 'a -> 'a) -> t -> 'a -> 'a

(** Every source path, each as tags from the root, in sorted order (a
    path before its extensions). *)
val all_paths : t -> string list list

(** Every source path with its count, in {!all_paths} order. *)
val path_counts : t -> (string list * int) list

(** The inverse of {!path_counts}: the guide with exactly these
    counts. *)
val of_path_counts : (string list * int) list -> t

(** [mem_path guide path] — does [path] (root tag first) occur? *)
val mem_path : t -> string list -> bool

(** [count guide path] — the nodes counted on [path] (0 if absent). *)
val count : t -> string list -> int

(** [suffix_count guide ~absolute ~tags] — the nodes matched by a
    suffix path: [count guide tags] if [absolute], else the sum over
    every source path that ends in [tags] (one walk over the guide;
    [tags = []] counts every node). *)
val suffix_count : t -> absolute:bool -> tags:string list -> int

(** Length of the longest source path. *)
val max_depth : t -> int

(** Sorted list of tags occurring anywhere in the guide. *)
val distinct_tags : t -> string list
