(** A DataGuide: the trie of all source paths occurring in a document,
    each with its node count and its P-label.

    The Unfold translator (paper Section 4.1.3) needs schema information
    to enumerate the simple paths matched by [p//q]; a DataGuide built
    from the instance is a sound and complete substitute for a DTD for
    that purpose.

    P-labels are native ints in {e reversed-path order}: the paths
    sorted by their tags read leaf first ("/" anchor first, so a path
    before the paths extending it towards the root), labels strictly
    increasing along that order with gaps between them.  It is the
    order Algorithm 1's nested shares induce, so a suffix path matches
    a run of consecutive paths and its P-label interval contains
    exactly their labels (Proposition 3.2). *)

type t

val empty : t

(** [of_tree tree] builds the DataGuide of all source paths in [tree],
    counting the elements on each; labels are fresh: the [i]-th path of
    the reversed-path order (from 0) gets [(i + 1) * 2^20]. *)
val of_tree : Types.tree -> t

(** [edit guide ~add ~remove] counts one node more on every path of
    [add], then one fewer on every path of [remove] (root tag first).
    A path met for the first time takes the midpoint of the gap where
    it sorts; when that gap has no room, the labels of the smallest
    window of neighbouring paths whose outer labels leave room are
    respread (see {!relabeled}).  A path leaves the guide with its last
    node.  Allocation depends only on the path set and the order of
    [add].
    @raise Invalid_argument if a removed path has no node left. *)
val edit : t -> add:string list list -> remove:string list list -> t

(** [relabeled ~before ~after] — [(old, new)] labels of every path in
    both guides whose label differs, in reversed-path order. *)
val relabeled : before:t -> after:t -> (int * int) list

(** A position in the trie, for walking it from the root. *)
type pos

val top : t -> pos

(** [find_child pos tag] descends one level. *)
val find_child : pos -> string -> pos option

(** [fold_children f pos acc] folds [f tag child] over the immediate
    children, in sorted tag order. *)
val fold_children : (string -> pos -> 'a -> 'a) -> pos -> 'a -> 'a

(** Every source path, each as tags from the root, in sorted order (a
    path before its extensions). *)
val all_paths : t -> string list list

(** Every source path with its count, in {!all_paths} order. *)
val path_counts : t -> (string list * int) list

(** The guide with exactly these counts, labels fresh. *)
val of_path_counts : (string list * int) list -> t

(** Every source path with its count and label, in {!all_paths}
    order. *)
val entries : t -> (string list * int * int) list

(** The inverse of {!entries}.
    @raise Invalid_argument unless the labels increase in reversed-path
    order. *)
val of_entries : (string list * int * int) list -> t

(** [iter_order f guide] calls [f rpath count label] on every source
    path in reversed-path order, [rpath] leaf tag first. *)
val iter_order : (string list -> int -> int -> unit) -> t -> unit

(** [same_paths a b] — whether [a] and [b] share their paths and
    labels physically (an {!edit} that neither adds nor drops a path
    keeps them), so that they hold the same paths with the same labels.
    [false] says nothing. *)
val same_paths : t -> t -> bool

(** [mem_path guide path] — does [path] (root tag first) occur? *)
val mem_path : t -> string list -> bool

(** [count guide path] — the nodes counted on [path] (0 if absent). *)
val count : t -> string list -> int

(** [label guide path] — the P-label of a source path that occurs. *)
val label : t -> string list -> int option

(** [suffix_interval guide ~absolute ~tags] — the P-label interval
    [(lo, hi)] of a suffix path: a point for an absolute path, the
    labels of the matching run for a relative one.  When no path
    matches, it is the free labels of the gap where a match would sort
    (a point inside it, for an absolute path), which no node carries.
    [None] when a tag occurs nowhere or the path is longer than the
    deepest one: the path is empty on this document. *)
val suffix_interval :
  t -> absolute:bool -> tags:string list -> (int * int) option

(** [suffix_count guide ~absolute ~tags] — the nodes matched by a
    suffix path: [count guide tags] if [absolute], else the nodes on
    the run of paths ending in [tags] ([tags = []] counts every
    node). *)
val suffix_count : t -> absolute:bool -> tags:string list -> int

(** The number of source paths. *)
val path_count : t -> int

(** The smallest distance between consecutive labels (from 0 to the
    first); [max_int] on an empty guide.  Halving it [log2] times is
    how many new paths one spot takes before a respread. *)
val min_gap : t -> int

(** Length of the longest source path. *)
val max_depth : t -> int

(** Sorted list of tags occurring anywhere in the guide. *)
val distinct_tags : t -> string list
