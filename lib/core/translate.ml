(** SQL generation and composition (the last two boxes of the query
    translator in Figure 6): each suffix path subquery becomes P-label
    conditions on one aliased copy of the SP relation, and the recorded
    ancestor-descendant relationships become D-join conditions; a
    decomposition with several union branches (Unfold) becomes a UNION.

    Following Proposition 3.2, an absolute (simple) suffix path turns
    into an {e equality} selection [plabel = p1] and a relative one into
    a {e range} selection [p1 <= plabel <= p2] — the distinction behind
    the Split vs Push-up vs Unfold comparison of Section 5.2.2. *)


let col id column = Blas_rel.Sql_ast.Col (Suffix_query.alias id ^ "." ^ column)

(* P-label and data conditions for one item; None if the item's path
   mentions a tag absent from the document (empty answer). *)
let item_conditions guide (item : Suffix_query.item) =
  match Suffix_query.interval guide item.path with
  | None -> None
  | Some (lo, hi) ->
    let plabel = col item.id "plabel" in
    let structural =
      if item.path.absolute then
        [
          {
            Blas_rel.Sql_ast.lhs = plabel;
            cmp = Blas_rel.Sql_ast.Eq;
            rhs = Blas_rel.Sql_ast.Int lo;
          };
        ]
      else
        [
          {
            Blas_rel.Sql_ast.lhs = plabel;
            cmp = Blas_rel.Sql_ast.Ge;
            rhs = Blas_rel.Sql_ast.Int lo;
          };
          {
            Blas_rel.Sql_ast.lhs = plabel;
            cmp = Blas_rel.Sql_ast.Le;
            rhs = Blas_rel.Sql_ast.Int hi;
          };
        ]
    in
    let value =
      match item.value with
      | None -> []
      | Some (Blas_xpath.Ast.Equals v) ->
        [ { Blas_rel.Sql_ast.lhs = col item.id "data"; cmp = Blas_rel.Sql_ast.Eq; rhs = Blas_rel.Sql_ast.Str v } ]
      | Some (Blas_xpath.Ast.Differs v) ->
        [ { Blas_rel.Sql_ast.lhs = col item.id "data"; cmp = Blas_rel.Sql_ast.Ne; rhs = Blas_rel.Sql_ast.Str v } ]
    in
    Some (structural @ value)

let join_conditions (j : Suffix_query.join) =
  let d_join =
    [
      { Blas_rel.Sql_ast.lhs = col j.anc "start"; cmp = Blas_rel.Sql_ast.Lt; rhs = col j.desc "start" };
      { Blas_rel.Sql_ast.lhs = col j.anc "end"; cmp = Blas_rel.Sql_ast.Gt; rhs = col j.desc "end" };
    ]
  in
  let level =
    match j.gap with
    | Suffix_query.Exact k ->
      [
        {
          Blas_rel.Sql_ast.lhs = col j.desc "level";
          cmp = Blas_rel.Sql_ast.Eq;
          rhs = Blas_rel.Sql_ast.Add (col j.anc "level", Blas_rel.Sql_ast.Int k);
        };
      ]
    | Suffix_query.At_least 1 -> []  (* implied by strict containment *)
    | Suffix_query.At_least k ->
      [
        {
          Blas_rel.Sql_ast.lhs = col j.desc "level";
          cmp = Blas_rel.Sql_ast.Ge;
          rhs = Blas_rel.Sql_ast.Add (col j.anc "level", Blas_rel.Sql_ast.Int k);
        };
      ]
  in
  d_join @ level

(** One SELECT block for one decomposition; [None] when some item is
    provably empty. *)
let branch_to_select guide (d : Suffix_query.t) =
  let rec conditions acc = function
    | [] -> Some (List.concat (List.rev acc))
    | item :: rest -> (
      match item_conditions guide item with
      | None -> None
      | Some conds -> conditions (conds :: acc) rest)
  in
  match conditions [] d.items with
  | None -> None
  | Some item_conds ->
    Some
      {
        Blas_rel.Sql_ast.projection = Blas_rel.Sql_ast.Columns [ Suffix_query.alias d.output ^ ".start" ];
        from =
          List.map (fun (i : Suffix_query.item) -> ("sp", Suffix_query.alias i.id)) d.items;
        where = item_conds @ List.concat_map join_conditions d.joins;
      }

(** [to_sql storage branches] composes the full SQL query plan; [None]
    when every branch is empty. *)
let to_sql (storage : Storage.t) (branches : Suffix_query.t list) =
  match List.filter_map (branch_to_select storage.guide) branches with
  | [] -> None
  | [ s ] -> Some (Blas_rel.Sql_ast.Select s)
  | ss -> Some (Blas_rel.Sql_ast.Union (List.map (fun s -> Blas_rel.Sql_ast.Select s) ss))
