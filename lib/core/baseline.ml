(** The conventional D-labeling-only approach the paper compares against
    (Sections 1 and 5): every query node becomes one aliased copy of the
    SD relation selected by tag, and every query edge becomes a D-join —
    [(l - 1)] joins for a query with [l] tags. *)

(* Preorder numbering of query nodes, so T1 is the query root. *)
type numbered = { nid : int; node : Blas_xpath.Ast.node; kids : numbered list }

let number_nodes (query : Blas_xpath.Ast.t) =
  let counter = ref 0 in
  let rec go (q : Blas_xpath.Ast.node) =
    incr counter;
    let nid = !counter in
    { nid; node = q; kids = List.map go q.children }
  in
  go query

let alias id = Printf.sprintf "T%d" id

let col id column = Blas_rel.Sql_ast.Col (alias id ^ "." ^ column)

(** [to_sql query] — the D-labeling SQL plan over SD.  Wildcard nodes
    contribute no tag condition (every element qualifies). *)
let to_sql (query : Blas_xpath.Ast.t) =
  let numbered = number_nodes query in
  let froms = ref [] in
  let conds = ref [] in
  let output = ref None in
  let add c = conds := c :: !conds in
  let rec emit parent { nid = id; node = q; kids = children } =
    froms := ("sd", alias id) :: !froms;
    if q.is_output then output := Some id;
    (match q.test with
    | Blas_xpath.Ast.Tag t ->
      add { Blas_rel.Sql_ast.lhs = col id "tag"; cmp = Blas_rel.Sql_ast.Eq; rhs = Blas_rel.Sql_ast.Str t }
    | Blas_xpath.Ast.Any -> ());
    (match q.value with
    | Some (Blas_xpath.Ast.Equals v) ->
      add { Blas_rel.Sql_ast.lhs = col id "data"; cmp = Blas_rel.Sql_ast.Eq; rhs = Blas_rel.Sql_ast.Str v }
    | Some (Blas_xpath.Ast.Differs v) ->
      add { Blas_rel.Sql_ast.lhs = col id "data"; cmp = Blas_rel.Sql_ast.Ne; rhs = Blas_rel.Sql_ast.Str v }
    | None -> ());
    (match parent with
    | None ->
      (* The root: a leading / anchors it at level 1. *)
      if q.axis = Blas_xpath.Ast.Child then
        add { Blas_rel.Sql_ast.lhs = col id "level"; cmp = Blas_rel.Sql_ast.Eq; rhs = Blas_rel.Sql_ast.Int 1 }
    | Some pid ->
      add { Blas_rel.Sql_ast.lhs = col pid "start"; cmp = Blas_rel.Sql_ast.Lt; rhs = col id "start" };
      add { Blas_rel.Sql_ast.lhs = col pid "end"; cmp = Blas_rel.Sql_ast.Gt; rhs = col id "end" };
      if q.axis = Blas_xpath.Ast.Child then
        add
          {
            Blas_rel.Sql_ast.lhs = col id "level";
            cmp = Blas_rel.Sql_ast.Eq;
            rhs = Blas_rel.Sql_ast.Add (col pid "level", Blas_rel.Sql_ast.Int 1);
          });
    List.iter (emit (Some id)) children
  in
  emit None numbered;
  let output =
    match !output with
    | Some id -> id
    | None -> invalid_arg "Baseline.to_sql: query has no return node"
  in
  Blas_rel.Sql_ast.Select
    {
      Blas_rel.Sql_ast.projection = Blas_rel.Sql_ast.Columns [ alias output ^ ".start" ];
      from = List.rev !froms;
      where = List.rev !conds;
    }

(** [to_pattern ~wrap storage counters query] — the same plan as a twig
    pattern over per-tag D-label streams, for the holistic twig join
    engine.  The level-1 constraint of an absolute root and value
    predicates are applied while the stream is materialized; the
    visited-element count still charges every element of the tag (the
    engine must read them, as the paper's Figures 14-18 count). *)
let to_pattern ~(wrap : Engine_twig.wrap) (storage : Storage.t) counters
    (query : Blas_xpath.Ast.t) =
  let stream (q : Blas_xpath.Ast.node) ~root =
    let cols = Engine_twig.stream_cols q.value in
    let rows =
      match q.test with
      | Blas_xpath.Ast.Tag t ->
        Blas_rel.Table.index_eq ~cols storage.sd counters ~column:"tag"
          (Blas_rel.Value.Str t)
      | Blas_xpath.Ast.Any -> Blas_rel.Table.scan ~cols storage.sd counters
    in
    let keep_level level =
      (not root) || q.axis <> Blas_xpath.Ast.Child || level = 1
    in
    Engine_twig.entries ~keep_level q.value (cols, rows)
  in
  let rec build ~root (q : Blas_xpath.Ast.node) =
    let label =
      match q.test with Blas_xpath.Ast.Tag t -> t | Blas_xpath.Ast.Any -> "*"
    in
    wrap ~label @@ fun () ->
    Blas_twig.Pattern.make ~label
      ~entries:(stream q ~root)
      ~gap:
        (match q.axis with
        | Blas_xpath.Ast.Child -> Blas_twig.Pattern.Exact 1
        | Blas_xpath.Ast.Descendant -> Blas_twig.Pattern.At_least 1)
      ~children:(List.map (build ~root:false) q.children)
      ~is_output:q.is_output
  in
  build ~root:true query
