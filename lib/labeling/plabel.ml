(** P-labeling (Section 3.2): interval labels for suffix path expressions
    (Algorithm 1) and integer labels for XML nodes (Algorithm 2 /
    Definition 3.3), such that a node matches a suffix path query exactly
    when its label falls inside the query's interval (Proposition 3.2). *)

type suffix_path = {
  absolute : bool;
      (** [true] for a simple path (leading "/"), [false] for a leading
          descendant step "//". *)
  tags : string list;  (** Outermost tag first. *)
}

let pp_suffix_path ppf { absolute; tags } =
  Format.fprintf ppf "%s%s"
    (if absolute then "/" else "//")
    (String.concat "/" tags)

(** [suffix_contains ~outer ~inner] decides [inner <= outer] on suffix
    paths directly from their syntax: a simple path [q] is contained in a
    suffix path [Q] iff [q] ends with [Q]'s tag sequence, and in general
    [P <= Q] iff [Q]'s tags are a suffix of [P]'s tags and [Q] is not
    stricter than [P] about anchoring (Section 2). *)
let suffix_contains ~outer ~inner =
  let rec is_suffix long short =
    let ll = List.length long and ls = List.length short in
    if ls > ll then false
    else if ls = ll then List.for_all2 String.equal long short
    else
      match long with
      | [] -> false
      | _ :: rest -> is_suffix rest short
  in
  if outer.absolute then
    (* An absolute outer only contains paths anchored the same way with
       exactly the same tags. *)
    inner.absolute && List.length inner.tags = List.length outer.tags
    && List.for_all2 String.equal inner.tags outer.tags
  else is_suffix inner.tags outer.tags

(** Algorithm 1: the P-label interval of a suffix path expression.
    Returns [None] when some tag is not in the inventory or the path is
    longer than the table's height — in both cases the query has an
    empty answer on any document labeled with this table (no source
    path can match), and the interval arithmetic would run out of
    integers. *)
let suffix_path_interval table { absolute; tags } =
  if List.length tags > Tag_table.height table then None
  else
  let d = Tag_table.denominator table in
  let step (p1, width) tag =
    match Tag_table.index table tag with
    | None -> None
    | Some j ->
      (* p1 <- p1 + width * (sum of ratios below tag j); the new width is
         one ratio share.  All divisions are exact by the choice of m. *)
      let share = Bignum.div_int_exact width d in
      Some (Bignum.add p1 (Bignum.mul_int share j), share)
  in
  (* Algorithm 1 consumes tags from the last to the first; peeling the
     innermost tag first is the same as narrowing from <0, m-1> reading
     the reversed path. *)
  let rec go acc = function
    | [] -> Some acc
    | tag :: rest -> (
      match step acc tag with None -> None | Some acc -> go acc rest)
  in
  match go (Bignum.zero, Tag_table.m table) (List.rev tags) with
  | None -> None
  | Some (p1, width) ->
    let width = if absolute then Bignum.div_int_exact width d else width in
    Some (Interval.make p1 (Bignum.pred (Bignum.add p1 width)))

(** Definition 3.3: the P-label of a node is the left endpoint of the
    interval of its absolute source path (root tag first).
    @raise Invalid_argument if a tag is missing from the table, which
    cannot happen when the table was built from the same document. *)
let node_label table source_path =
  match suffix_path_interval table { absolute = true; tags = source_path } with
  | Some interval -> Interval.lo interval
  | None -> invalid_arg "Plabel.node_label: tag missing from the table"

(** [alloc_path table source_path] — the P-label for a source path that
    may never have been materialized before (the update subsystem
    inserting a subtree).  Because a label is the left endpoint of the
    path's interval and intervals are carved by pure subdivision of the
    parent path's interval (Algorithm 1), allocating a label for a new
    path never moves any existing label: labels are a function of the
    fixed tag inventory, not of the document instance.  Diagnosed
    errors instead of exceptions: [`Unknown_tag] when a tag is outside
    the inventory, [`Too_deep] when the path exceeds the table height —
    both mean the inventory must be rebuilt (a full relabel). *)
let alloc_path table source_path =
  if List.length source_path > Tag_table.height table then Error `Too_deep
  else
    match
      List.find_opt (fun tag -> Tag_table.index table tag = None) source_path
    with
    | Some tag -> Error (`Unknown_tag tag)
    | None -> Ok (node_label table source_path)

(** Algorithm 2: label every element node of a tree by a single
    depth-first pass maintaining the interval stack.  Returns nodes in
    document order as [(plabel, source_path, node)].  Agreement with
    {!node_label} on every node is checked by the test suite. *)
let label_tree table tree =
  let d = Tag_table.denominator table in
  let m = Tag_table.m table in
  let acc = ref [] in
  let rec go (p1, p2) path node =
    match node with
    | Blas_xml.Types.Content _ -> ()
    | Blas_xml.Types.Element (tag, children) ->
      let i =
        match Tag_table.index table tag with
        | Some i -> i
        | None -> invalid_arg "Plabel.label_tree: tag missing from the table"
      in
      (* <pi1, pi2> is the interval of //tag: share number i of <0, m-1>.
         With (pi2 - pi1 + 1) / m = 1 / d, lines 9-10 of Algorithm 2
         reduce to p1' = pi1 + p1/d and p2' = pi1 + (p2+1)/d - 1, and
         both divisions are exact at any depth within the table height. *)
      let share = Bignum.div_int_exact m d in
      let pi1 = Bignum.mul_int share i in
      let p1' = Bignum.add pi1 (Bignum.div_int_exact p1 d) in
      let p2' = Bignum.pred (Bignum.add pi1 (Bignum.div_int_exact (Bignum.succ p2) d)) in
      let path = tag :: path in
      acc := (p1', List.rev path, node) :: !acc;
      List.iter (go (p1', p2') path) children
  in
  go (Bignum.zero, Bignum.pred m) [] tree;
  List.rev !acc

