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

(** External scan memo consulted before indexed base-table accesses.
    [probe] returns the remembered pre-residual tuple list of an
    identical access, or [None]; [store] is offered the tuples an
    actual access fetched.  Full scans are never offered — the memo
    exists to save index work, and a full scan is the signature of a
    plan that will touch everything anyway. *)
type scan_cache = {
  probe : Table.t -> Algebra.access_path -> Tuple.t list option;
  store : Table.t -> Algebra.access_path -> Tuple.t list -> unit;
}

(* One base-table access, through [cache] when the path is indexed. *)
let access ?cache counters table path =
  let fetch () =
    match path with
    | Algebra.Full_scan -> Table.scan table counters
    | Algebra.Index_eq { column; value } -> (
      match Table.index_eq table counters ~column value with
      | rows -> rows
      | exception Not_found ->
        error "%s is not clustered on %s" (Table.name table) column)
    | Algebra.Index_range { column; lo; hi } -> (
      match Table.index_range table counters ~column ~lo ~hi with
      | rows -> rows
      | exception Not_found ->
        error "%s is not clustered on %s" (Table.name table) column)
  in
  match (cache, path) with
  | Some c, (Algebra.Index_eq _ | Algebra.Index_range _) -> (
    match c.probe table path with
    | Some rows -> rows
    | None ->
      let rows = fetch () in
      c.store table path rows;
      rows)
  | _ -> fetch ()

(* Evaluates to (schema, tuple list).  [wrap] intercepts every operator
   evaluation — the identity for plain runs, a collector frame for
   EXPLAIN ANALYZE. *)
let rec eval_wrapped ~cancel wrap cache counters plan =
  (* Cooperative cancellation point: one check per operator boundary,
     so a deadline or client disconnect stops the plan between
     operators. *)
  cancel ();
  wrap plan @@ fun () ->
  match plan with
  | Algebra.Access { table; alias; path; residual } ->
    let qualified = Schema.qualify alias (Table.schema table) in
    let tuples = access ?cache counters table path in
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
    (Schema.of_list columns, List.map (Tuple.project indices) tuples)
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
    let side schema start_col end_col =
      {
        Structural_join.start_col = find_col schema start_col;
        end_col = find_col schema end_col;
      }
    in
    let keep =
      match spec.Algebra.gap with
      | Algebra.Any_gap -> fun _ _ -> true
      | Algebra.Exact_gap { anc_level; desc_level; k } ->
        let al = find_col ls anc_level and dl = find_col rs desc_level in
        fun a d ->
          Value.to_int (Tuple.get d dl) = Value.to_int (Tuple.get a al) + k
      | Algebra.Min_gap { anc_level; desc_level; k } ->
        let al = find_col ls anc_level and dl = find_col rs desc_level in
        fun a d ->
          Value.to_int (Tuple.get d dl) >= Value.to_int (Tuple.get a al) + k
    in
    let out =
      Structural_join.pairs ~anc:lt ~desc:rt
        ~anc_side:(side ls spec.Algebra.anc_start spec.anc_end)
        ~desc_side:(side rs spec.desc_start spec.desc_end)
        keep
    in
    counters.Counters.intermediate <- counters.Counters.intermediate + List.length out;
    (Schema.concat ls rs, out)
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
    let relation = Relation.distinct (Relation.make schema (Array.of_list tuples)) in
    (schema, Array.to_list (Relation.tuples relation))

(* Evaluates the two sides of a join, left then right. *)
and eval_sides ~cancel wrap cache counters left right =
  let l = eval_wrapped ~cancel wrap cache counters left in
  let r = eval_wrapped ~cancel wrap cache counters right in
  (l, r)

let no_wrap _plan f = f ()

(** [run ?counters ?collector plan] executes [plan] and materializes
    the result.  A [collector] records every operator (EXPLAIN
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
  Relation.make schema (Array.of_list tuples)
