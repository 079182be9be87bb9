(** Cost estimation for translated plans, in the paper's currencies
    (Section 4.2: visited tuples / disk pages, and D-joins), priced
    purely from collected statistics ({!Blas_optimizer.Stats}) for the
    [Auto2] planner, plus the clustered page arithmetic the cache layer
    scores memoized scans with.  Join output sizes are not modelled
    (the paper does not model them either). *)

(* Conservative page count for a clustered fetch of [tuples] rows: they
   are contiguous in the clustered order, spanning at most one extra
   page at each end. *)
let pages_for tuples ~page_rows =
  if tuples = 0 then 0 else ((tuples + page_rows - 1) / page_rows) + 1

(** [model_page_rows storage] — the clustered page density the model
    should price against: the SP table's measured rows per page.  Under
    a compressing codec this grows, so page estimates shrink with the
    bytes — the planner sees compression. *)
let model_page_rows (storage : Storage.t) =
  Blas_rel.Table.avg_page_rows storage.sp

(** Selectivity-scaled estimate of a translation, priced purely from
    collected statistics — computing one touches no tables, which is
    what lets [Auto2] enumerate the whole plan space for free. *)
type estimate = {
  e_visited : float;  (** tuples the items will scan *)
  e_selected : float;  (** of those, survivors of value predicates *)
  e_join_input : float;  (** selected tuples entering structural joins *)
  e_djoins : int;
  e_branches : int;
}

let zero_estimate =
  { e_visited = 0.; e_selected = 0.; e_join_input = 0.; e_djoins = 0; e_branches = 0 }

let add_estimate a b =
  {
    e_visited = a.e_visited +. b.e_visited;
    e_selected = a.e_selected +. b.e_selected;
    e_join_input = a.e_join_input +. b.e_join_input;
    e_djoins = a.e_djoins + b.e_djoins;
    e_branches = a.e_branches + b.e_branches;
  }

let item_leaf_tag (item : Suffix_query.item) =
  match List.rev item.path.Blas_label.Plabel.tags with
  | leaf :: _ -> leaf
  | [] -> ""

(* (scanned, selected) for one item: the P-interval population from the
   statistics' counted DataGuide, scaled by the predicate's sampled
   selectivity. *)
let estimate_item stats (item : Suffix_query.item) =
  let card =
    float_of_int
      (Blas_xml.Dataguide.suffix_count
         (Blas_optimizer.Stats.guide stats)
         ~absolute:item.path.Blas_label.Plabel.absolute
         ~tags:item.path.Blas_label.Plabel.tags)
  in
  let sel =
    match item.value with
    | None -> 1.0
    | Some (Blas_xpath.Ast.Equals v) ->
      Blas_optimizer.Stats.selectivity stats ~tag:(item_leaf_tag item)
        (`Equals v)
    | Some (Blas_xpath.Ast.Differs v) ->
      Blas_optimizer.Stats.selectivity stats ~tag:(item_leaf_tag item)
        (`Differs v)
  in
  (card, card *. sel)

(** [estimate_branch stats branch] — one decomposition branch, from
    statistics alone. *)
let estimate_branch stats (branch : Suffix_query.t) =
  let per_item =
    List.map (fun i -> (i.Suffix_query.id, estimate_item stats i)) branch.items
  in
  let selected_of id =
    match List.assoc_opt id per_item with Some (_, s) -> s | None -> 0.
  in
  let scanned = List.fold_left (fun a (_, (c, _)) -> a +. c) 0. per_item in
  let selected = List.fold_left (fun a (_, (_, s)) -> a +. s) 0. per_item in
  let join_input =
    List.fold_left
      (fun a (j : Suffix_query.join) ->
        a +. selected_of j.anc +. selected_of j.desc)
      0. branch.joins
  in
  {
    e_visited = scanned;
    e_selected = selected;
    e_join_input = join_input;
    e_djoins = Suffix_query.djoin_count branch;
    e_branches = 1;
  }

(** [estimate_decomposition stats branches] — a whole translation. *)
let estimate_decomposition stats branches =
  List.fold_left
    (fun acc b -> add_estimate acc (estimate_branch stats b))
    zero_estimate branches

let pp_estimate ppf e =
  Format.fprintf ppf
    "visited~%.0f selected~%.0f join-input~%.0f djoins=%d branches=%d"
    e.e_visited e.e_selected e.e_join_input e.e_djoins e.e_branches
