(** Query decomposition: the Split and Push-up translation algorithms of
    Sections 4.1.1-4.1.2, plus the schema-driven expansion that powers
    Unfold (Section 4.1.3).

    Both algorithms interleave descendant-axis elimination (cut at every
    [//] edge) with branch elimination (cut at every branching point),
    walking the query tree once:

    - a {e segment} is a maximal chain of child-axis steps with concrete
      tags ending at a branching point, a valued node, a cut, or before a
      wildcard — each segment becomes one suffix path
      {!Suffix_query.item};
    - a wildcard [*] is a segment of its own: the relative suffix path
      with no tags, whose P-label interval holds every element; it joins
      its parent and children like any cut;
    - {b Split} gives every cut subquery a fresh leading [//]
      (Algorithms 3 and 4);
    - {b Push-up} prefixes branch-eliminated subqueries with the full
      path of their branching point (Algorithm 5), making the
      subqueries more specific; descendant cuts and the children of a
      wildcard still reset to [//], which is why descendant elimination
      must conceptually run first (Section 4.1.2) — the single walk
      below respects that order.

    Neither reads the schema, except that a leading absolute [/*] is
    the document's root tag.  Only Unfold expands the query against the
    schema ({!expand}), within {!expansion_bound}. *)

type mode = Split | Pushup

(* ------------------------------------------------------------------ *)
(* Split / Push-up                                                    *)

type builder = {
  mutable items : Suffix_query.item list;
  mutable joins : Suffix_query.join list;
  mutable output : int option;
  mutable next_id : int;
}

(* The relative suffix path with no tags: every element. *)
let relative = { Suffix_query.absolute = false; tags = [] }

let new_item builder ~path ~value ~is_output =
  let id = builder.next_id in
  builder.next_id <- id + 1;
  builder.items <- { Suffix_query.id; path; value } :: builder.items;
  if is_output then begin
    assert (builder.output = None);
    builder.output <- Some id
  end;
  id

(* Walks one component: collects the segment starting at [q] (whose
   incoming edge the caller already accounted for), emits its item, then
   recurses into cuts.  Returns the item id and the segment length
   (depth of the item's leaf below the segment root, >= 1). *)
let rec component mode builder ~prefix (q : Blas_xpath.Ast.node) =
  let rec walk acc tag (q : Blas_xpath.Ast.node) =
    let tags = tag :: acc in
    match q.children with
    | [ ({ axis = Blas_xpath.Ast.Child; test = Blas_xpath.Ast.Tag t; _ } as c) ]
      when q.value = None && not q.is_output ->
      walk tags t c
    | children -> (tags, q, children)
  in
  let path, last, children, length =
    match q.test with
    | Blas_xpath.Ast.Any -> (relative, q, q.children, 1)
    | Blas_xpath.Ast.Tag t ->
      let rev_tags, last, children = walk [] t q in
      let segment = List.rev rev_tags in
      ( {
          Suffix_query.absolute = prefix.Suffix_query.absolute;
          tags = prefix.tags @ segment;
        },
        last,
        children,
        List.length segment )
  in
  let item = new_item builder ~path ~value:last.value ~is_output:last.is_output in
  let child_prefix = match mode with Split -> relative | Pushup -> path in
  List.iter
    (fun (c : Blas_xpath.Ast.node) ->
      match c.axis with
      | Blas_xpath.Ast.Child ->
        (* Branch elimination: the cut subquery's root is a child of the
           segment leaf, so the level gap to its own leaf is exact. *)
        let sub, depth = component mode builder ~prefix:child_prefix c in
        builder.joins <-
          { Suffix_query.anc = item; desc = sub; gap = Suffix_query.Exact depth }
          :: builder.joins
      | Blas_xpath.Ast.Descendant ->
        (* Descendant elimination: the subquery starts over with //; its
           root sits at least one level below, so its leaf sits at least
           [depth] levels below (Section 3.1's D-join, strengthened with
           the lower bound needed when the cut segment has length > 1). *)
        let sub, depth = component mode builder ~prefix:relative c in
        builder.joins <-
          { Suffix_query.anc = item; desc = sub; gap = Suffix_query.At_least depth }
          :: builder.joins)
    children;
  (item, length)

(** [decompose mode query] splits a query tree into suffix path
    subqueries connected by D-joins.
    @raise Invalid_argument without exactly one return node, or on a
    leading absolute [/*] (see {!translate}). *)
let decompose mode (query : Blas_xpath.Ast.t) =
  if not (Blas_xpath.Ast.is_well_formed query) then
    invalid_arg "Decompose.decompose: query must have exactly one return node";
  let builder = { items = []; joins = []; output = None; next_id = 1 } in
  let prefix =
    match (query.axis, query.test) with
    | Blas_xpath.Ast.Child, Blas_xpath.Ast.Any ->
      invalid_arg "Decompose.decompose: a leading /* names the root tag"
    | Blas_xpath.Ast.Child, Blas_xpath.Ast.Tag _ ->
      { Suffix_query.absolute = true; tags = [] }
    | Blas_xpath.Ast.Descendant, _ -> relative
  in
  let _root, _depth = component mode builder ~prefix query in
  match builder.output with
  | None -> assert false
  | Some output ->
    {
      Suffix_query.items = List.rev builder.items;
      joins = List.rev builder.joins;
      output;
    }

(* ------------------------------------------------------------------ *)
(* Schema expansion (Unfold)                                         *)

module Guide = Blas_xml.Dataguide

(* Folds [f] over every (reversed chain of tags, guide position) pair
   reachable from [pos] by one query edge, in schema order. *)
let fold_edge_targets ~axis ~test f pos acc =
  let matches tag =
    match test with
    | Blas_xpath.Ast.Tag t -> String.equal t tag
    | Blas_xpath.Ast.Any -> true
  in
  match (axis, test) with
  | Blas_xpath.Ast.Child, Blas_xpath.Ast.Tag t -> (
    match Guide.find_child pos t with
    | Some child -> f ([ t ], child) acc
    | None -> acc)
  | Blas_xpath.Ast.Child, Blas_xpath.Ast.Any ->
    Guide.fold_children (fun tag child acc -> f ([ tag ], child) acc) pos acc
  | Blas_xpath.Ast.Descendant, _ ->
    let rec below rev_chain pos acc =
      Guide.fold_children
        (fun tag child acc ->
          let chain = tag :: rev_chain in
          let acc = if matches tag then f (chain, child) acc else acc in
          below chain child acc)
        pos acc
    in
    below [] pos acc

let edge_targets ~axis ~test pos =
  List.rev (fold_edge_targets ~axis ~test List.cons pos [])

let cross_product lists =
  List.fold_right
    (fun alts acc ->
      List.concat_map (fun a -> List.map (fun rest -> a :: rest) acc) alts)
    lists [ [] ]

(* Rewrites the reversed tag chain into nested child-axis steps ending
   at [inner]. *)
let chain_to_node rev_chain inner =
  match rev_chain with
  | [] -> invalid_arg "Decompose.chain_to_node: empty chain"
  | last :: above ->
    let inner = { inner with Blas_xpath.Ast.test = Blas_xpath.Ast.Tag last } in
    List.fold_left
      (fun below tag ->
        {
          Blas_xpath.Ast.axis = Blas_xpath.Ast.Child;
          test = Blas_xpath.Ast.Tag tag;
          value = None;
          children = [ below ];
          is_output = false;
        })
      inner above

(** [expand guide query] enumerates the concrete instantiations of
    [query] against the schema: wildcards are substituted by actual
    tags and descendant axes by every concrete child-axis chain, so the
    result contains only child axes and concrete tags (the Unfold
    pipeline).  Queries are returned in schema order; an empty list
    means the query matches nothing in any document described by
    [guide]. *)
let expand guide (query : Blas_xpath.Ast.t) =
  (* For each query node: alternatives of (rewritten node). *)
  let rec alternatives pos (q : Blas_xpath.Ast.node) =
    List.concat_map
      (fun (rev_chain, target_pos) ->
        let kids = cross_product (List.map (alternatives target_pos) q.children) in
        List.map
          (fun children ->
            chain_to_node rev_chain { q with axis = Blas_xpath.Ast.Child; children })
          kids)
      (edge_targets ~axis:q.axis ~test:q.test pos)
  in
  alternatives (Guide.top guide) query

(** [translate mode ~guide query] is the full pipeline for Split or
    Push-up: one decomposition, or none when a leading absolute [/*]
    finds no root tag in [guide] (an empty document). *)
let translate mode ~guide (query : Blas_xpath.Ast.t) =
  match (query.axis, query.test) with
  | Blas_xpath.Ast.Child, Blas_xpath.Ast.Any ->
    Guide.fold_children
      (fun tag _ acc -> decompose mode { query with test = Blas_xpath.Ast.Tag tag } :: acc)
      (Guide.top guide) []
  | _ -> [ decompose mode query ]

(* ------------------------------------------------------------------ *)
(* Unfold, within the expansion bound                                 *)

(** Past this many union branches a full expansion is not built: over a
    recursive schema the count grows multiplicatively with every [//]
    and [*] step (221,052 branches for one 7-step query over an
    82-node document). *)
let expansion_bound = 64

(* The length of [expand guide query], saturated at [cap]:
   the same sum over edge targets of products over children, counted
   without building a query.  A full expansion never deduplicates, so
   below [cap] the count is exact. *)
let count_unfoldings ~cap guide (query : Blas_xpath.Ast.t) =
  let rec count pos (q : Blas_xpath.Ast.node) =
    fold_edge_targets ~axis:q.axis ~test:q.test
      (fun (_, target) acc ->
        if acc >= cap then acc
        else
          let product =
            List.fold_left
              (fun p c -> if p = 0 then 0 else min cap (p * count target c))
              1 q.children
          in
          min cap (acc + product))
      pos 0
  in
  count (Guide.top guide) query

(** [unfold_opt guide query] is the Unfold translation: full expansion,
    then Push-up decomposition of each expanded query, so only equality
    selections and exact-gap D-joins remain (b of them, per Section
    4.2).  [None] when the expansion has more than {!expansion_bound}
    branches; counting stops at bound + 1. *)
let unfold_opt guide query =
  if count_unfoldings ~cap:(expansion_bound + 1) guide query > expansion_bound
  then None
  else Some (List.map (decompose Pushup) (expand guide query))

(** [unfold guide query] — {!unfold_opt}, or past the bound the Push-up
    translation: the [//] edges and [*] steps stay unexpanded, so the
    answers are the same. *)
let unfold guide query =
  match unfold_opt guide query with
  | Some branches -> branches
  | None -> translate Pushup ~guide query
