(** Physical relational algebra.

    Plans mirror the shapes the paper shows in Figure 11: renamed base
    table accesses with selections pushed into them, structural D-joins
    with optional level predicates, generic theta joins, projections and
    unions.  Columns of an [Access] node are qualified ["alias.column"].

    The D-join is its own operator (rather than a theta join with an
    interval predicate) because the paper's engines execute it with a
    dedicated merge algorithm and because the join count per translator —
    the headline of Section 4.2 — is a property of the plan.

    Late materialization: {!prune} gives every [Access] the table
    columns the operators above it read, and every [Djoin] the columns
    the operators above it keep, so a plan decodes and carries only
    those (the paper's plans read [start], [end] and [level] to join,
    [data] under a value predicate, and return only [start]). *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type operand = Col of string | Const of Value.t

type pred =
  | True
  | Cmp of cmp * operand * operand
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

(** How an [Access] reads its table.  Both selections are on the
    table's leading cluster-key column (plabel for SP, tag for SD) and
    are served by its clustered page directory: one directory descent,
    then the pages of the selected run. *)
type access_path =
  | Full_scan
  | Index_eq of { column : string; value : Value.t }
      (** Equality selection — Unfold's access path. *)
  | Index_range of { column : string; lo : Value.t option; hi : Value.t option }
      (** Range selection — Split/Push-up's path. *)

(** Level constraint carried by a D-join: [Exact_gap] requires
    [desc_level = anc_level + k] (Section 4.1.1 uses this to keep
    parent/grandparent precision after branch elimination); [Any_gap] is
    the plain ancestor-descendant join. *)
type level_gap =
  | Any_gap
  | Exact_gap of { anc_level : string; desc_level : string; k : int }
  | Min_gap of { anc_level : string; desc_level : string; k : int }
      (** [desc_level >= anc_level + k]: a descendant cut whose suffix
          path has more than one step pins a lower bound on the level
          difference. *)

type djoin = {
  anc_start : string;
  anc_end : string;
  desc_start : string;
  desc_end : string;
  gap : level_gap;
  out : string list option;
      (** the columns the join emits, in input order (ancestor side
          first); [None]: every column of both sides *)
}

type plan =
  | Access of {
      table : Table.t;
      alias : string;
      path : access_path;
      residual : pred;
      cols : string list option;
          (** the table columns read, in table order; [None]: all *)
    }
  | Select of pred * plan
  | Project of string list * plan
  | Theta_join of pred * plan * plan
  | Djoin of djoin * plan * plan  (** left = ancestor side, right = descendant *)
  | Union of plan list  (** branches must share a schema; keeps duplicates *)
  | Distinct of plan

(* ------------------------------------------------------------------ *)
(* Predicate evaluation                                               *)

let cmp_holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(** [eval_pred schema pred tuple] evaluates [pred]; comparisons involving
    NULL are false (SQL three-valued logic collapsed to two values, which
    is enough for the query subset).
    @raise Not_found if a column is missing from [schema]. *)
let eval_pred schema pred tuple =
  let operand = function
    | Const v -> v
    | Col c -> Tuple.get tuple (Schema.index_of schema c)
  in
  let rec go = function
    | True -> true
    | Cmp (cmp, a, b) -> (
      match operand a, operand b with
      | Value.Null, _ | _, Value.Null -> false
      | va, vb -> cmp_holds cmp (Value.compare va vb))
    | And (a, b) -> go a && go b
    | Or (a, b) -> go a || go b
    | Not a -> not (go a)
  in
  go pred

let conj a b =
  match a, b with True, p | p, True -> p | a, b -> And (a, b)

let rec conj_list = function [] -> True | [ p ] -> p | p :: rest -> conj p (conj_list rest)

(* ------------------------------------------------------------------ *)
(* Required columns (late materialization)                            *)

let rec pred_columns = function
  | True -> []
  | Cmp (_, a, b) ->
    List.filter_map (function Col c -> Some c | Const _ -> None) [ a; b ]
  | And (a, b) | Or (a, b) -> pred_columns a @ pred_columns b
  | Not a -> pred_columns a

(** The columns [plan] produces, in order. *)
let rec columns = function
  | Access { table; alias; cols; _ } ->
    List.map
      (fun c -> alias ^ "." ^ c)
      (match cols with Some cols -> cols | None -> Schema.columns (Table.schema table))
  | Select (_, p) | Distinct p -> columns p
  | Project (cols, _) -> cols
  | Theta_join (_, a, b) -> columns a @ columns b
  | Djoin ({ out = Some out; _ }, _, _) -> out
  | Djoin ({ out = None; _ }, a, b) -> columns a @ columns b
  | Union [] -> []
  | Union (p :: _) -> columns p

let gap_columns = function
  | Any_gap -> []
  | Exact_gap { anc_level; desc_level; _ } | Min_gap { anc_level; desc_level; _ } ->
    [ anc_level; desc_level ]

(** [prune plan] — the required-columns pass.  Walking down from the
    root, each operator asks its inputs for the columns it reads or
    passes up: a [Project] its list, a [Select] and a [Theta_join] their
    predicate's columns besides, a [Djoin] the ancestor's interval, the
    descendant's [start] and the level-gap columns, and [Union] and
    [Distinct] every column (branches line up by position, and
    duplicates are judged on whole rows).  Each [Access] then reads the
    requested columns of its alias plus its residual's, and each
    [Djoin] emits only the requested ones.  The plan's own output
    columns are kept. *)
let prune plan =
  let rec go need plan =
    let wanted c = List.mem c need in
    match plan with
    | Access a ->
      let need = need @ pred_columns a.residual in
      let cols =
        List.filter
          (fun c -> List.mem (a.alias ^ "." ^ c) need)
          (Schema.columns (Table.schema a.table))
      in
      Access { a with cols = Some cols }
    | Select (p, sub) -> Select (p, go (need @ pred_columns p) sub)
    | Project (cols, sub) -> Project (cols, go cols sub)
    | Theta_join (p, a, b) ->
      let need = need @ pred_columns p in
      Theta_join (p, go need a, go need b)
    | Djoin (d, a, b) ->
      (* The merge join never reads a descendant's [end]: intervals
         nest or are disjoint, so an ancestor open at the descendant's
         start contains it. *)
      let inner = need @ [ d.anc_start; d.anc_end; d.desc_start ] @ gap_columns d.gap in
      let a = go inner a and b = go inner b in
      Djoin ({ d with out = Some (List.filter wanted (columns a @ columns b)) }, a, b)
    | Union ps -> Union (List.map (fun p -> go (columns p) p) ps)
    | Distinct p -> Distinct (go (columns p) p)
  in
  go (columns plan) plan

(* ------------------------------------------------------------------ *)
(* Plan inspection (Section 4.2's claims are stated on these counts)  *)

let rec count_djoins = function
  | Access _ -> 0
  | Select (_, p) | Project (_, p) | Distinct p -> count_djoins p
  | Theta_join (_, a, b) -> count_djoins a + count_djoins b
  | Djoin (_, a, b) -> 1 + count_djoins a + count_djoins b
  | Union ps -> List.fold_left (fun acc p -> acc + count_djoins p) 0 ps

let rec count_joins = function
  | Access _ -> 0
  | Select (_, p) | Project (_, p) | Distinct p -> count_joins p
  | Theta_join (_, a, b) -> 1 + count_joins a + count_joins b
  | Djoin (_, a, b) -> 1 + count_joins a + count_joins b
  | Union ps -> List.fold_left (fun acc p -> acc + count_joins p) 0 ps

type selection_profile = { equality : int; range : int; scans : int }

(** Counts the access-path kinds of a plan — the paper compares Split,
    Push-up and Unfold by range vs equality selections (Section 5.2.2). *)
let selection_profile plan =
  let profile = ref { equality = 0; range = 0; scans = 0 } in
  let rec go = function
    | Access { path; _ } ->
      let p = !profile in
      profile :=
        (match path with
        | Full_scan -> { p with scans = p.scans + 1 }
        | Index_eq _ -> { p with equality = p.equality + 1 }
        | Index_range _ -> { p with range = p.range + 1 })
    | Select (_, p) | Project (_, p) | Distinct p -> go p
    | Theta_join (_, a, b) | Djoin (_, a, b) ->
      go a;
      go b
    | Union ps -> List.iter go ps
  in
  go plan;
  !profile

(* ------------------------------------------------------------------ *)
(* Pretty printing, in the relational-algebra style of Figure 11      *)

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_operand ppf = function
  | Col c -> Format.pp_print_string ppf c
  | Const v -> Format.pp_print_string ppf (Value.to_string v)

let rec pp_pred ppf = function
  | True -> Format.pp_print_string ppf "true"
  | Cmp (cmp, a, b) ->
    Format.fprintf ppf "%a %s %a" pp_operand a (cmp_symbol cmp) pp_operand b
  | And (a, b) -> Format.fprintf ppf "%a ^ %a" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf ppf "(%a v %a)" pp_pred a pp_pred b
  | Not a -> Format.fprintf ppf "not(%a)" pp_pred a

let pp_path ppf = function
  | Full_scan -> Format.pp_print_string ppf "scan"
  | Index_eq { column; value } ->
    Format.fprintf ppf "σ[%s = %s]" column (Value.to_string value)
  | Index_range { column; lo; hi } ->
    let bound = function None -> "·" | Some v -> Value.to_string v in
    Format.fprintf ppf "σ[%s <= %s <= %s]" (bound lo) column (bound hi)

let rec pp ppf = function
  | Access { table; alias; path; residual; _ } ->
    Format.fprintf ppf "ρ(%s, %a" alias pp_path path;
    (match residual with
    | True -> ()
    | p -> Format.fprintf ppf " ^ %a" pp_pred p);
    Format.fprintf ppf "(%s))" (Table.name table)
  | Select (p, plan) -> Format.fprintf ppf "σ[%a]@,(%a)" pp_pred p pp plan
  | Project (cols, plan) ->
    Format.fprintf ppf "π[%s]@,(%a)" (String.concat ", " cols) pp plan
  | Theta_join (p, a, b) ->
    Format.fprintf ppf "@[<v>(%a@ ⋈[%a]@ %a)@]" pp a pp_pred p pp b
  | Djoin (d, a, b) ->
    let gap =
      match d.gap with
      | Any_gap -> ""
      | Exact_gap { anc_level; desc_level; k } ->
        Format.sprintf " ^ %s = %s + %d" desc_level anc_level k
      | Min_gap { anc_level; desc_level; k } ->
        Format.sprintf " ^ %s >= %s + %d" desc_level anc_level k
    in
    Format.fprintf ppf "@[<v>(%a@ ⋈D[%s < %s ^ %s > %s%s]@ %a)@]" pp a d.anc_start
      d.desc_start d.anc_end d.desc_end gap pp b
  | Union ps ->
    Format.fprintf ppf "@[<v>(%a)@]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ∪ ") pp)
      ps
  | Distinct p -> Format.fprintf ppf "δ(%a)" pp p

let to_string plan = Format.asprintf "%a" pp plan

(* ------------------------------------------------------------------ *)
(* Shallow, one-line descriptions for EXPLAIN ANALYZE trees            *)

let node_kind = function
  | Access _ -> "access"
  | Select _ -> "select"
  | Project _ -> "project"
  | Theta_join _ -> "theta-join"
  | Djoin _ -> "djoin"
  | Union _ -> "union"
  | Distinct _ -> "distinct"

(** [describe plan] — a one-line label for [plan]'s topmost operator
    (children are not rendered; an analyze tree shows them as child
    nodes). *)
let describe = function
  | Access { table; alias; path; residual; _ } ->
    Format.asprintf "%s %a(%s)%s" alias pp_path path (Table.name table)
      (match residual with
      | True -> ""
      | p -> Format.asprintf " ^ %a" pp_pred p)
  | Select (p, _) -> Format.asprintf "σ[%a]" pp_pred p
  | Project (cols, _) -> Format.sprintf "π[%s]" (String.concat ", " cols)
  | Theta_join (p, _, _) -> Format.asprintf "⋈[%a]" pp_pred p
  | Djoin (d, _, _) ->
    let gap =
      match d.gap with
      | Any_gap -> ""
      | Exact_gap { anc_level; desc_level; k } ->
        Format.sprintf " ^ %s = %s + %d" desc_level anc_level k
      | Min_gap { anc_level; desc_level; k } ->
        Format.sprintf " ^ %s >= %s + %d" desc_level anc_level k
    in
    Format.sprintf "⋈D[%s < %s ^ %s > %s%s]" d.anc_start d.desc_start d.anc_end
      d.desc_end gap
  | Union ps -> Format.sprintf "∪ (%d branches)" (List.length ps)
  | Distinct _ -> "δ"
