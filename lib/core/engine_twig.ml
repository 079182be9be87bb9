(** The file-system / holistic-twig-join engine (Figure 6's second
    engine alternative): suffix-path subqueries become P-label range
    scans that feed D-label streams into the getNext holistic twig join
    ({!Blas_twig.Twig_stack}).

    A decomposition with several union branches (Unfold) runs one twig
    join per branch and unites the answers; the paper's prototype did
    not support unions, which is why its twig experiments compare only
    D-labeling, Split and Push-up — the benches mirror that, but the
    engine itself is complete. *)

open Blas_rel

(** The columns a stream reads, in SP/SD table order: the D-label,
    plus [data] under a value predicate. *)
let stream_cols value =
  [ "start"; "end"; "level" ] @ match value with None -> [] | Some _ -> [ "data" ]

(** [entries ?keep_level value (cols, rows)] — the stream entries of
    [rows], which hold the columns [cols] (at least {!stream_cols}
    [value]), whose [data] satisfies [value] and whose level passes
    [keep_level]. *)
let entries ?(keep_level = fun _ -> true) value (cols, rows) =
  let schema = Schema.of_list cols in
  let start_i = Schema.index_of schema "start"
  and end_i = Schema.index_of schema "end"
  and level_i = Schema.index_of schema "level" in
  let int_at row i = Value.to_int (Tuple.get row i) in
  let keep_value =
    match value with
    | None -> fun _ -> true
    | Some value -> (
      let data_i = Schema.index_of schema "data" in
      fun row ->
        match (Tuple.get row data_i, value) with
        | Value.Str d, Blas_xpath.Ast.Equals v -> String.equal d v
        | Value.Str d, Blas_xpath.Ast.Differs v -> not (String.equal d v)
        | _ -> false)
  in
  List.filter_map
    (fun row ->
      let level = int_at row level_i in
      if keep_level level && keep_value row then
        Some { Blas_twig.Entry.start = int_at row start_i; fin = int_at row end_i; level }
      else None)
    rows

(* The stream of one suffix-path item: a clustered P-label range (or,
   for an absolute path, equality) access on SP reading only the
   stream's columns, with the value predicate applied after it.
   [cache] is the query cache's scan hook, the same one the RDBMS
   engine uses: it holds the rows of the access before any predicate,
   so the two engines share entries. *)
let item_stream ?cache (storage : Storage.t) counters
    (item : Suffix_query.item) =
  match Suffix_query.interval storage.guide item.path with
  | None -> []
  | Some (lo, hi) ->
    let lo = Value.Int lo in
    let path =
      if item.path.absolute then
        Algebra.Index_eq { column = "plabel"; value = lo }
      else
        Algebra.Index_range
          {
            column = "plabel";
            lo = Some lo;
            hi = Some (Value.Int hi);
          }
    in
    entries item.value
      (Executor.access ?cache ~cols:(stream_cols item.value) counters storage.sp
         path)

let gap_of = function
  | Suffix_query.Exact k -> Blas_twig.Pattern.Exact k
  | Suffix_query.At_least k -> Blas_twig.Pattern.At_least k

(* EXPLAIN ANALYZE hook: intercepts the construction of each pattern
   node (children nest inside), so a collector can charge every stream's
   counter delta to its own node.  The default is a no-op. *)
type wrap =
  label:string -> (unit -> Blas_twig.Pattern.node) -> Blas_twig.Pattern.node

let no_wrap ~label:_ f = f ()

(** [pattern_of_branch storage counters branch] roots the join tree and
    materializes every item's stream. *)
let pattern_of_branch ?(wrap = no_wrap) ?(cancel = ignore) ?cache
    (storage : Storage.t) counters (branch : Suffix_query.t) =
  let rec build ~gap (item : Suffix_query.item) =
    (* Cooperative cancellation point: one check per pattern node, i.e.
       before each item's stream is materialized. *)
    cancel ();
    let label = Format.asprintf "%a" Suffix_query.pp_path item.path in
    wrap ~label @@ fun () ->
    let children =
      List.map
        (fun (j : Suffix_query.join) ->
          build ~gap:(gap_of j.gap) (Suffix_query.find_item branch j.desc))
        (Suffix_query.children_of branch item.id)
    in
    Blas_twig.Pattern.make ~label
      ~entries:(item_stream ?cache storage counters item)
      ~gap ~children
      ~is_output:(item.id = branch.output)
  in
  build ~gap:(Blas_twig.Pattern.At_least 1) (Suffix_query.root_item branch)

(** One holistic twig join: [label] names it in EXPLAIN ANALYZE;
    [build ~wrap counters] materializes its pattern's streams, charging
    [counters] and installing [wrap] around every pattern node. *)
type join = {
  label : string;
  build : wrap:wrap -> Counters.t -> Blas_twig.Pattern.node;
}

let branch_label (branch : Suffix_query.t) =
  Format.asprintf "twig join %a" Suffix_query.pp_path
    (Suffix_query.find_item branch branch.output).path

(** [branch_joins storage branches] — one join per union branch of a
    decomposed query. *)
let branch_joins ?cancel ?cache (storage : Storage.t) branches =
  List.map
    (fun branch ->
      {
        label = branch_label branch;
        build =
          (fun ~wrap counters ->
            pattern_of_branch ~wrap ?cancel ?cache storage counters branch);
      })
    branches

(* Wraps pattern-node construction in a collector frame: rows = stream
   length, self = the counter delta of materializing this stream. *)
let stream_wrap collector ~label f =
  Blas_obs.Analyze.Collector.wrap collector ~kind:"stream" ~label
    ~rows:(fun (node : Blas_twig.Pattern.node) -> Array.length node.entries)
    f

(** [run ?collector counters joins] runs each join with the
    paper's getNext algorithm ({!Blas_twig.Twig_stack}) and
    unites the answers (sorted start positions).  "Visited elements",
    the cost the paper's figures report, is what the streams read from
    storage before any value filtering: [counters.tuples_read]. *)
let run ?(cancel = ignore) ?collector counters joins =
  let run_join counters j =
    (* Cancellation points: before each join's streams build (a branch
       build also checks per pattern node) and before the join runs. *)
    cancel ();
    let join () =
      let wrap = match collector with None -> no_wrap | Some c -> stream_wrap c in
      let pattern = j.build ~wrap counters in
      cancel ();
      fst (Blas_twig.Twig_stack.run pattern)
    in
    match collector with
    | None -> join ()
    | Some c ->
      Blas_obs.Analyze.Collector.wrap c ~kind:"twig-join" ~label:j.label
        ~rows:List.length join
  in
  List.sort_uniq Int.compare (List.concat_map (run_join counters) joins)
