(** Compilation of {!Sql_ast} queries into executable {!Algebra} plans —
    the planning half of the "RDBMS query engine".

    The planner performs the two optimizations the paper's figures depend
    on:

    - {b access-path selection}: single-table equality and range
      predicates on the clustering column become page-directory lookups
      pushed into the table access (clustered selections are the whole
      point of P-labeling);
    - {b D-join recognition}: a pair of cross-table comparisons
      [A.s < B.s and A.e > B.e] (optionally with a level-gap equality)
      becomes a structural-join operator executed by the stack-tree merge
      instead of a nested-loop theta join.

    The finished plan then goes through the required-columns pass
    ({!Algebra.prune}), so its accesses decode only the columns the
    SELECT list, the joins and the predicates read. *)

exception Error of string

let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

(* ------------------------------------------------------------------ *)

let split_qualified name =
  match String.index_opt name '.' with
  | Some i ->
    Some (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> None

let const_of_expr = function
  | Sql_ast.Int i -> Some (Value.Int i)
  | Sql_ast.Big b -> Some (Value.Big b)
  | Sql_ast.Str s -> Some (Value.Str s)
  | Sql_ast.Col _ | Sql_ast.Add _ | Sql_ast.Sub _ -> None

let flip_cmp = function
  | Algebra.Eq -> Algebra.Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(* A condition normalized to the aliases it mentions. *)
type local = { alias : string; column : string; cmp : Algebra.cmp; value : Value.t }

(* left.col CMP right.col + offset *)
type cross = {
  left_alias : string;
  left_col : string;
  ccmp : Algebra.cmp;
  right_alias : string;
  right_col : string;
  offset : int;
}

type classified = Local of local | Cross of cross

(* Splits [col + k] / [col - k] into the column and the integer offset. *)
let rec col_plus_offset = function
  | Sql_ast.Col c -> Some (c, 0)
  | Sql_ast.Add (e, Sql_ast.Int k) | Sql_ast.Add (Sql_ast.Int k, e) -> (
    match col_plus_offset e with Some (c, o) -> Some (c, o + k) | None -> None)
  | Sql_ast.Sub (e, Sql_ast.Int k) -> (
    match col_plus_offset e with Some (c, o) -> Some (c, o - k) | None -> None)
  | Sql_ast.Int _ | Sql_ast.Big _ | Sql_ast.Str _ | Sql_ast.Sub _ | Sql_ast.Add _ ->
    None

let classify ~default_alias { Sql_ast.lhs; cmp; rhs } =
  let qualify name =
    match split_qualified name with
    | Some (alias, col) -> (alias, col)
    | None -> (
      match default_alias with
      | Some alias -> (alias, name)
      | None -> error "unqualified column %s in a multi-table query" name)
  in
  match lhs, rhs with
  | Sql_ast.Col name, rhs when const_of_expr rhs <> None ->
    let alias, column = qualify name in
    Local { alias; column; cmp; value = Option.get (const_of_expr rhs) }
  | lhs, Sql_ast.Col name when const_of_expr lhs <> None ->
    let alias, column = qualify name in
    Local { alias; column; cmp = flip_cmp cmp; value = Option.get (const_of_expr lhs) }
  | _ -> (
    match col_plus_offset lhs, col_plus_offset rhs with
    | Some (lname, 0), Some (rname, k) ->
      let left_alias, left_col = qualify lname in
      let right_alias, right_col = qualify rname in
      if String.equal left_alias right_alias then
        error "same-alias comparison %s vs %s is not supported" lname rname;
      Cross { left_alias; left_col; ccmp = cmp; right_alias; right_col; offset = k }
    | Some (lname, k), Some (rname, 0) ->
      let left_alias, left_col = qualify rname in
      let right_alias, right_col = qualify lname in
      if String.equal left_alias right_alias then
        error "same-alias comparison %s vs %s is not supported" lname rname;
      Cross
        { left_alias; left_col; ccmp = flip_cmp cmp; right_alias; right_col; offset = k }
    | _ -> error "unsupported condition shape")

(* ------------------------------------------------------------------ *)
(* Access-path selection                                              *)

let local_to_pred ~alias { column; cmp; value; _ } =
  Algebra.Cmp (cmp, Algebra.Col (alias ^ "." ^ column), Algebra.Const value)

(* Access-path selection for one alias: equality on the clustering
   column (plabel/tag), then a range on it, then a scan — the paper's
   plans (Figure 11) select only on that column, and the page directory
   serves exactly those selections.  Every other predicate stays
   residual. *)
let choose_access table alias locals =
  let clustered l =
    match Table.cluster_key table with
    | leading :: _ -> String.equal leading l.column
    | [] -> false
  in
  let residual served =
    List.map (local_to_pred ~alias) (List.filter (fun l -> not (served l)) locals)
  in
  match
    List.find_opt
      (fun l -> clustered l && match l.cmp with Algebra.Eq -> true | _ -> false)
      locals
  with
  | Some l ->
    (Algebra.Index_eq { column = l.column; value = l.value }, residual (( == ) l))
  | None -> (
    (* The last lower and upper bound on the clustering column win. *)
    let bound cmp =
      List.fold_left
        (fun acc l -> if clustered l && l.cmp = cmp then Some l else acc)
        None locals
    in
    match (bound Algebra.Ge, bound Algebra.Le) with
    | None, None -> (Algebra.Full_scan, residual (fun _ -> false))
    | lo, hi ->
      let column = (List.hd (Option.to_list lo @ Option.to_list hi)).column in
      let value = Option.map (fun l -> l.value) in
      let lo = value lo and hi = value hi in
      (* Every bound equal to the one applied is served by the range. *)
      let served l =
        clustered l
        &&
        match (l.cmp, lo, hi) with
        | Algebra.Ge, Some v, _ | Algebra.Le, _, Some v -> Value.equal v l.value
        | _ -> false
      in
      (Algebra.Index_range { column; lo; hi }, residual served))

(* ------------------------------------------------------------------ *)
(* Join-tree construction                                             *)

type component = { aliases : string list; plan : Algebra.plan }

let cross_to_pred c =
  if c.offset <> 0 then
    error "unsupported residual arithmetic on %s.%s" c.left_alias c.left_col
  else
    Algebra.Cmp
      ( c.ccmp,
        Algebra.Col (c.left_alias ^ "." ^ c.left_col),
        Algebra.Col (c.right_alias ^ "." ^ c.right_col) )

(* Recognizes the structural-join pattern among the cross conditions of
   one alias pair, returning the D-join spec oriented with [a] as the
   ancestor or [b] as the ancestor, plus the unconsumed conditions.

   The bare conjunction [A.s < B.s and A.e > B.e] is orientation-
   ambiguous (it equals [B.e < A.e and B.s > A.s] read the other way),
   and the merge join requires the true interval orientation, so a match
   additionally demands the paper's column naming — the lt-pair on
   "start" and the gt-pair on "end" — and that any level-arithmetic
   condition is consumable in the chosen orientation.  Anything else
   falls back to a (slower but always correct) theta join. *)
let match_djoin a b conds =
  let towards anc desc =
    (* anc.s < desc.s, anc.e > desc.e *)
    let oriented c =
      if String.equal c.left_alias anc then Some (c.left_col, c.ccmp, c.right_col)
      else Some (c.right_col, flip_cmp c.ccmp, c.left_col)
    in
    let lt = ref None and gt = ref None and gap = ref None in
    let rest = ref [] in
    List.iter
      (fun c ->
        if c.offset = 0 then
          match oriented c with
          | Some (ac, Algebra.Lt, dc) when !lt = None -> lt := Some (ac, dc)
          | Some (ac, Algebra.Gt, dc) when !gt = None -> gt := Some (ac, dc)
          | _ -> rest := c :: !rest
        else begin
          (* Normalize to [desc.col CMP anc.col + k] and accept the exact
             (=) and lower-bound (>=) level-gap shapes. *)
          let normalized =
            if String.equal c.left_alias desc then
              Some (c.left_col, c.ccmp, c.right_col, c.offset)
            else if String.equal c.left_alias anc then
              Some (c.right_col, flip_cmp c.ccmp, c.left_col, -c.offset)
            else None
          in
          match normalized with
          | Some (dcol, Algebra.Eq, acol, k) when k > 0 && !gap = None ->
            gap := Some (`Exact, acol, dcol, k)
          | Some (dcol, Algebra.Ge, acol, k) when k > 0 && !gap = None ->
            gap := Some (`Min, acol, dcol, k)
          | Some _ | None -> rest := c :: !rest
        end)
      conds;
    let consumable_rest =
      List.for_all (fun c -> c.offset = 0) !rest
    in
    let named_start_end =
      match !lt, !gt with
      | Some (ac, dc), Some (ac', dc') ->
        String.equal ac "start" && String.equal dc "start"
        && String.equal ac' "end" && String.equal dc' "end"
      | _ -> false
    in
    if not (consumable_rest && named_start_end) then None
    else
    match !lt, !gt with
    | Some (anc_start, desc_start), Some (anc_end, desc_end) ->
      let gap_constraint =
        match !gap with
        | Some (`Exact, al, dl, k) ->
          Algebra.Exact_gap
            { anc_level = anc ^ "." ^ al; desc_level = desc ^ "." ^ dl; k }
        | Some (`Min, al, dl, k) ->
          Algebra.Min_gap
            { anc_level = anc ^ "." ^ al; desc_level = desc ^ "." ^ dl; k }
        | None -> Algebra.Any_gap
      in
      Some
        ( {
            Algebra.anc_start = anc ^ "." ^ anc_start;
            anc_end = anc ^ "." ^ anc_end;
            desc_start = desc ^ "." ^ desc_start;
            desc_end = desc ^ "." ^ desc_end;
            gap = gap_constraint;
            out = None;
          },
          anc,
          List.rev !rest )
    | _ -> None
  in
  match towards a b with
  | Some r -> Some r
  | None -> towards b a

let compile_select ~catalog (s : Sql_ast.select) =
  if s.from = [] then error "FROM clause is empty";
  let default_alias =
    match s.from with [ (_, alias) ] -> Some alias | _ -> None
  in
  let table_of alias =
    let table_name =
      try fst (List.find (fun (_, a) -> String.equal a alias) s.from)
      with Not_found -> error "unknown alias %s" alias
    in
    match catalog table_name with
    | Some t -> t
    | None -> error "unknown table %s" table_name
  in
  let classified = List.map (classify ~default_alias) s.where in
  let locals = Hashtbl.create 4 in
  let crosses = ref [] in
  List.iter
    (fun c ->
      match c with
      | Local l ->
        let prev = try Hashtbl.find locals l.alias with Not_found -> [] in
        Hashtbl.replace locals l.alias (prev @ [ l ])
      | Cross c -> crosses := c :: !crosses)
    classified;
  let crosses = List.rev !crosses in
  (* One component per alias to start. *)
  let components =
    ref
      (List.map
         (fun (_, alias) ->
           let table = table_of alias in
           let alias_locals = try Hashtbl.find locals alias with Not_found -> [] in
           let path, residual_preds = choose_access table alias alias_locals in
           {
             aliases = [ alias ];
             plan =
               Algebra.Access
                 {
                   table;
                   alias;
                   path;
                   residual = Algebra.conj_list residual_preds;
                   cols = None;
                 };
           })
         s.from)
  in
  (* Group cross conditions by unordered alias pair. *)
  let pair_key c =
    if String.compare c.left_alias c.right_alias <= 0 then
      (c.left_alias, c.right_alias)
    else (c.right_alias, c.left_alias)
  in
  let groups = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let key = pair_key c in
      let prev = try Hashtbl.find groups key with Not_found -> [] in
      Hashtbl.replace groups key (prev @ [ c ]))
    crosses;
  let find_component alias =
    List.find (fun c -> List.mem alias c.aliases) !components
  in
  let leftovers = ref [] in
  (* Process alias pairs in a deterministic order (Hashtbl iteration is
     unspecified and would make plan shapes vary between runs). *)
  let ordered_groups =
    List.sort
      (fun (ka, _) (kb, _) -> Stdlib.compare ka kb)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups [])
  in
  List.iter
    (fun ((a, b), conds) ->
      let ca = find_component a in
      let cb = find_component b in
      if ca == cb then
        (* Both sides already joined: apply as a residual selection. *)
        leftovers := List.map cross_to_pred conds @ !leftovers
      else begin
        let joined =
          match match_djoin a b conds with
          | Some (spec, anc, rest) ->
            let anc_comp, desc_comp =
              if List.mem anc ca.aliases then (ca, cb) else (cb, ca)
            in
            let plan = Algebra.Djoin (spec, anc_comp.plan, desc_comp.plan) in
            let plan =
              match rest with
              | [] -> plan
              | rest -> Algebra.Select (Algebra.conj_list (List.map cross_to_pred rest), plan)
            in
            { aliases = ca.aliases @ cb.aliases; plan }
          | None ->
            let pred = Algebra.conj_list (List.map cross_to_pred conds) in
            { aliases = ca.aliases @ cb.aliases; plan = Algebra.Theta_join (pred, ca.plan, cb.plan) }
        in
        components := joined :: List.filter (fun c -> c != ca && c != cb) !components
      end)
    ordered_groups;
  (* Any disconnected components form a cross product. *)
  let plan =
    match !components with
    | [] -> error "no relations"
    | first :: rest ->
      List.fold_left
        (fun acc c -> Algebra.Theta_join (Algebra.True, acc, c.plan))
        first.plan rest
  in
  let plan =
    match !leftovers with
    | [] -> plan
    | preds -> Algebra.Select (Algebra.conj_list preds, plan)
  in
  match s.projection with
  | Sql_ast.Star -> plan
  | Sql_ast.Columns cols -> Algebra.Project (cols, plan)

let rec compile_query ~catalog = function
  | Sql_ast.Select s -> compile_select ~catalog s
  | Sql_ast.Union [] -> error "empty union"
  | Sql_ast.Union qs -> Algebra.Union (List.map (compile_query ~catalog) qs)

(** [compile ~catalog query] plans a SQL query against the tables
    resolved by [catalog], then runs the required-columns pass
    ({!Algebra.prune}) over the plan.
    @raise Error on unsupported shapes or unknown tables/columns. *)
let compile ~catalog query = Algebra.prune (compile_query ~catalog query)
