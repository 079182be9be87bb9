(** The output of query decomposition: a set of suffix path subqueries
    plus the ancestor-descendant relationships between their results —
    what the "query decomposition" box of the paper's Figure 6 hands to
    SQL generation and composition.

    Each {!item} evaluates, via its P-label, to the bindings of the leaf
    of its suffix path.  A {!join} relates the leaf bindings of two
    items: [Exact k] when the original query connected them by a chain
    of [k] child axes (Section 4.1.1 records this level difference),
    [At_least k] when the chain started with a descendant axis. *)

(** A suffix path expression (Definition 2.3). *)
type path = {
  absolute : bool;
      (** [true] for a simple path (leading "/"), [false] for a leading
          descendant step "//" *)
  tags : string list;  (** outermost tag first *)
}

type item = {
  id : int;  (** 1-based, dense *)
  path : path;
  value : Blas_xpath.Ast.value_constraint option;
      (** data constraint on the item's leaf *)
}

type gap = Exact of int | At_least of int

type join = { anc : int; desc : int; gap : gap }

type t = {
  items : item list;  (** in id order *)
  joins : join list;  (** a tree over item ids *)
  output : int;  (** the item whose bindings answer the query *)
}

(** @raise Not_found for an unknown id. *)
val find_item : t -> int -> item

val item_count : t -> int

val djoin_count : t -> int

(** The item that is never a descendant.
    @raise Invalid_argument if the join graph is not a tree. *)
val root_item : t -> item

(** Joins whose ancestor is the given item. *)
val children_of : t -> int -> join list

(** SQL alias for an item id ("T1", "T2", ...). *)
val alias : int -> string

(** Prints the path as XPath; the relative path with no tags, which
    matches every element, reads [//*]. *)
val pp_path : Format.formatter -> path -> unit

(** [interval guide path] — the P-label interval [(lo, hi)] of [path] on
    the document [guide] describes ({!Blas_xml.Dataguide.suffix_interval});
    [None] when [path] is provably empty there. *)
val interval : Blas_xml.Dataguide.t -> path -> (int * int) option

val pp_item : Format.formatter -> item -> unit

val pp : Format.formatter -> t -> unit
