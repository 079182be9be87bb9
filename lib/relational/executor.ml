(** Plan execution: materialized, operator-at-a-time evaluation of
    {!Algebra.plan}, charging {!Counters} for base-table reads, joins and
    intermediate results.

    With a collector attached, {!run} wraps every operator in an
    {!Blas_obs.Analyze.Collector} frame, producing an annotated plan
    tree (EXPLAIN ANALYZE) with actual row counts, elapsed time, index
    seeks and buffer-pool traffic per node.  Without one it pays only
    one no-op closure call per plan node for this hook. *)

exception Error of string

let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

let find_col schema name =
  match Schema.index_of_opt schema name with
  | Some i -> i
  | None -> error "unknown column %s in schema %a" name Schema.pp schema

(** External scan memo wrapped around indexed base-table accesses.
    [through table path ~cols ~fetch] returns the pre-residual rows of
    the access and the columns they hold, at least [cols]: remembered
    ones, or what [fetch wider] reads for some [wider] covering [cols].
    Full scans are never offered — the memo exists to save index work,
    and a full scan is the signature of a plan that will touch
    everything anyway. *)
type scan_cache = {
  through :
    Table.t ->
    Algebra.access_path ->
    cols:string list ->
    fetch:(string list -> Tuple.t list) ->
    string list * Tuple.t list;
}

(* One base-table access reading at least [cols] (default all), through
   [cache] when the path is indexed; the columns its rows hold and the
   rows. *)
let access ?cache ?cols counters table path =
  let cols =
    match cols with Some cols -> cols | None -> Schema.columns (Table.schema table)
  in
  let fetch cols =
    match path with
    | Algebra.Full_scan -> Table.scan ~cols table counters
    | Algebra.Index_eq { column; value } -> (
      match Table.index_eq ~cols table counters ~column value with
      | rows -> rows
      | exception Not_found ->
        error "%s is not clustered on %s" (Table.name table) column)
    | Algebra.Index_range { column; lo; hi } -> (
      match Table.index_range ~cols table counters ~column ~lo ~hi with
      | rows -> rows
      | exception Not_found ->
        error "%s is not clustered on %s" (Table.name table) column)
  in
  match (cache, path) with
  | Some c, (Algebra.Index_eq _ | Algebra.Index_range _) ->
    c.through table path ~cols ~fetch
  | _ -> (cols, fetch cols)

(* Evaluates to (schema, tuple list).  Rows stay in lists from the
   base-table access to the result: no operator builds an array of
   them (see {!run}).  [wrap] intercepts every operator
   evaluation — the identity for plain runs, a collector frame for
   EXPLAIN ANALYZE. *)
let rec eval_wrapped ~cancel wrap cache counters plan =
  (* Cooperative cancellation point: one check per operator boundary,
     so a deadline or client disconnect stops the plan between
     operators. *)
  cancel ();
  wrap plan @@ fun () ->
  match plan with
  | Algebra.Access { table; alias; path; residual; cols } ->
    let cols, tuples = access ?cache ?cols counters table path in
    let qualified = Schema.qualify alias (Schema.of_list cols) in
    let tuples =
      match residual with
      | Algebra.True -> tuples
      | pred -> List.filter (Algebra.eval_pred qualified pred) tuples
    in
    (qualified, tuples)
  | Algebra.Select (pred, sub) ->
    let schema, tuples = eval_wrapped ~cancel wrap cache counters sub in
    (schema, List.filter (Algebra.eval_pred schema pred) tuples)
  | Algebra.Project (columns, sub) ->
    let schema, tuples = eval_wrapped ~cancel wrap cache counters sub in
    let indices = Array.of_list (List.map (find_col schema) columns) in
    ( Schema.of_list columns,
      if Tuple.is_identity indices (Schema.arity schema) then tuples
      else List.map (Tuple.project indices) tuples )
  | Algebra.Theta_join (pred, left, right) ->
    let (ls, lt), (rs, rt) = eval_sides ~cancel wrap cache counters left right in
    counters.Counters.theta_joins <- counters.Counters.theta_joins + 1;
    let schema = Schema.concat ls rs in
    let out =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              let tuple = Tuple.concat a b in
              if Algebra.eval_pred schema pred tuple then Some tuple else None)
            rt)
        lt
    in
    counters.Counters.intermediate <- counters.Counters.intermediate + List.length out;
    (schema, out)
  | Algebra.Djoin (spec, left, right) ->
    let (ls, lt), (rs, rt) = eval_sides ~cancel wrap cache counters left right in
    counters.Counters.djoins <- counters.Counters.djoins + 1;
    let gap, anc_level, desc_level =
      match spec.Algebra.gap with
      | Algebra.Any_gap -> (Structural_join.Any, None, None)
      | Algebra.Exact_gap { anc_level; desc_level; k } ->
        (Structural_join.Exact k, Some anc_level, Some desc_level)
      | Algebra.Min_gap { anc_level; desc_level; k } ->
        (Structural_join.Min k, Some anc_level, Some desc_level)
    in
    let level schema = Option.fold ~none:(-1) ~some:(find_col schema) in
    (* The emitted columns, ancestor side first. *)
    let out =
      match spec.Algebra.out with
      | Some out -> out
      | None -> Schema.columns ls @ Schema.columns rs
    in
    let anc_cols = List.filter (Schema.mem ls) out
    and desc_cols = List.filter (Schema.mem rs) out in
    let positions schema cols = Array.of_list (List.map (find_col schema) cols) in
    let tuples =
      Structural_join.pairs ~anc:lt ~desc:rt
        ~anc_side:
          {
            Structural_join.start_col = find_col ls spec.Algebra.anc_start;
            end_col = find_col ls spec.anc_end;
            level_col = level ls anc_level;
          }
        ~desc_side:
          {
            Structural_join.start_col = find_col rs spec.desc_start;
            end_col = -1;
            level_col = level rs desc_level;
          }
        ~gap ~anc_out:(positions ls anc_cols) ~desc_out:(positions rs desc_cols)
    in
    counters.Counters.intermediate <-
      counters.Counters.intermediate + List.length tuples;
    (Schema.of_list (anc_cols @ desc_cols), tuples)
  | Algebra.Union [] -> error "empty union"
  | Algebra.Union (first :: rest) ->
    let schema, tuples = eval_wrapped ~cancel wrap cache counters first in
    let rest =
      List.map
        (fun sub ->
          let s, t = eval_wrapped ~cancel wrap cache counters sub in
          if not (Schema.equal s schema) then
            error "union schema mismatch: %a vs %a" Schema.pp schema Schema.pp s;
          t)
        rest
    in
    (schema, List.concat (tuples :: rest))
  | Algebra.Distinct sub ->
    let schema, tuples = eval_wrapped ~cancel wrap cache counters sub in
    (schema, List.sort_uniq Tuple.compare tuples)

(* Evaluates the two sides of a join, left then right. *)
and eval_sides ~cancel wrap cache counters left right =
  let l = eval_wrapped ~cancel wrap cache counters left in
  let r = eval_wrapped ~cancel wrap cache counters right in
  (l, r)

let no_wrap _plan f = f ()

(** [run ?counters ?collector plan] executes [plan]; the result's
    schema and rows.  A [collector] records every operator (EXPLAIN
    ANALYZE). *)
let run ?(counters = Counters.create ()) ?(cancel = ignore) ?cache ?collector plan =
  let schema, tuples =
    match collector with
    | None -> eval_wrapped ~cancel no_wrap cache counters plan
    | Some c ->
      let wrap node f =
        Blas_obs.Analyze.Collector.wrap c ~kind:(Algebra.node_kind node)
          ~label:(Algebra.describe node)
          ~rows:(fun (_, tuples) -> List.length tuples)
          f
      in
      eval_wrapped ~cancel wrap cache counters plan
  in
  Rel_log.Log.debug (fun m ->
      m "executed plan: %d rows, %a" (List.length tuples) Counters.pp counters);
  (schema, tuples)
