(** The one query pipeline (the paper's Figure 6: translator, then
    engine) behind the {!Blas} facade.  See {!Blas} for the
    user-facing documentation of these types and functions.

    Observability: every run can be traced ({!run}'s [?tracer] wraps the
    translate / compile / execute phases in {!Blas_obs.Trace} spans),
    recorded ({!set_metrics} installs a registry that receives query
    counts, latency histograms and I/O totals), or analyzed
    ({!run_analyze} is {!run} with an EXPLAIN ANALYZE collector
    attached).  All three are off by default and cost nothing when
    off. *)

let log_src = Logs.Src.create "blas" ~doc:"BLAS query processing"

module Log = (val Logs.src_log log_src)

type translator = D_labeling | Split | Pushup | Unfold | Auto2

type engine = Rdbms | Twig

let translator_name = function
  | D_labeling -> "D-labeling"
  | Split -> "Split"
  | Pushup -> "Push-up"
  | Unfold -> "Unfold"
  | Auto2 -> "Auto2"

(* [Auto2]'s picked plan, mapped back into this module's vocabulary. *)
let translator_of_kind = function
  | Blas_optimizer.Planner.Split -> Split
  | Blas_optimizer.Planner.Pushup -> Pushup
  | Blas_optimizer.Planner.Unfold -> Unfold

let engine_of_kind = function
  | Blas_optimizer.Planner.Rdbms -> Rdbms
  | Blas_optimizer.Planner.Twig -> Twig

let kind_of_engine = function
  | Rdbms -> Blas_optimizer.Planner.Rdbms
  | Twig -> Blas_optimizer.Planner.Twig

let engine_name = function Rdbms -> "RDBMS" | Twig -> "TwigJoin"

type report = {
  starts : int list;  (** answer nodes (start positions), sorted, unique *)
  visited : int;  (** base-table tuples / stream elements read *)
  page_reads : int;  (** buffer-pool misses — disk accesses *)
  plan_djoins : int;  (** D-joins in the executed plan *)
  memo_hits : int;
      (** runs served whole from the query-result memo (0 or 1 per
          {!run}; union reports sum them) — the serving layer's cache
          outcome attribution *)
  sql : Blas_rel.Sql_ast.t option;  (** the generated SQL ([None]: provably empty) *)
  counters : Blas_rel.Counters.t;  (** the full cost vector of this run *)
  choice : Optimizer.choice option;
      (** the [Auto2] pick (with its priced candidate table); [None]
          under every other translator *)
}

(** Measured cost of a finished report in the optimizer's pricing unit
    — comparable against [choice.ch_est_cost]. *)
let actual_cost ~engine (report : report) =
  Optimizer.actual_cost ~engine:(kind_of_engine engine) report.counters

(* The engine that ran: the [Auto2] pick when there is one. *)
let executed_engine ~engine (report : report) =
  match report.choice with
  | Some c -> engine_of_kind c.Optimizer.ch_engine
  | None -> engine

(* ------------------------------------------------------------------ *)
(* Metrics sink                                                       *)

(* [None] (the default) means fully disabled: {!record_metrics} is one
   dereference and a match. *)
let metrics_sink : Blas_obs.Metrics.t option ref = ref None

(** [set_metrics registry] installs (or, with [None], removes) the
    registry that receives per-query metrics: [blas.queries],
    [blas.query.latency_ns] (both labelled by engine and translator),
    [blas.tuples.read] and [blas.pages.read]. *)
let set_metrics registry = metrics_sink := registry

let record_metrics ~engine ~translator ~elapsed_ns
    (counters : Blas_rel.Counters.t) =
  match !metrics_sink with
  | None -> ()
  | Some registry ->
    let labels =
      [ ("engine", engine_name engine); ("translator", translator_name translator) ]
    in
    Blas_obs.Metrics.incr (Blas_obs.Metrics.counter registry ~labels "blas.queries");
    Blas_obs.Metrics.observe
      (Blas_obs.Metrics.histogram registry ~labels "blas.query.latency_ns")
      (Int64.to_float elapsed_ns);
    Blas_obs.Metrics.add
      (Blas_obs.Metrics.counter registry "blas.tuples.read")
      counters.Blas_rel.Counters.tuples_read;
    Blas_obs.Metrics.add
      (Blas_obs.Metrics.counter registry "blas.pages.read")
      counters.Blas_rel.Counters.page_reads

(* ------------------------------------------------------------------ *)
(* Planning                                                           *)

(* The plan-choice span's candidate table: one attr per priced
   candidate, plus the pick itself. *)
let choice_attrs (c : Optimizer.choice) =
  ("chosen", Optimizer.label c)
  :: ("est_cost", Printf.sprintf "%.0f" c.Optimizer.ch_est_cost)
  :: ("from_stats", string_of_bool c.Optimizer.ch_from_stats)
  :: List.map
       (fun cd ->
         ( Blas_optimizer.Planner.label cd,
           Printf.sprintf "%.0f" cd.Blas_optimizer.Planner.cd_cost ))
       c.Optimizer.ch_candidates

(* The translator and engine a plan runs on: the Auto2 pick when there
   is one, else the ones asked for. *)
let effective ~engine ~translator = function
  | Some (c : Optimizer.choice) ->
    (translator_of_kind c.Optimizer.ch_translator, engine_of_kind c.Optimizer.ch_engine)
  | None -> (translator, engine)

(* The plan-choice span of an Auto2 pick; [memo] says whether it was
   made for this run ("miss") or reused ("hit"). *)
let record_choice tracer ~memo ~start_ns c =
  if Blas_obs.Trace.enabled tracer then
    Blas_obs.Trace.record tracer
      ~attrs:(choice_attrs c @ [ ("memo", memo) ])
      ~name:"plan-choice" ~start_ns
      ~duration_ns:(Blas_obs.Clock.elapsed_ns start_ns) ()

(* The one planning step: Auto2's choice, the decomposition, and — for
   a plan that runs on or was asked for on the RDBMS engine — the SQL
   and its compiled plan, memoized per storage state in the storage's
   plan memo ({!Qcache.find_plan}; {!Qcache.flush_plans} empties it
   whenever an input changes).  A miss records the plan-choice,
   translate, compile or decompose spans of the work it does; a hit
   records only the plan-choice span of an Auto2 pick, marked
   [memo=hit], so a trace still says which plan ran and why. *)
let plan ?(tracer = Blas_obs.Trace.disabled) storage ~engine ~translator q =
  let qc = Storage.cache storage in
  let translator_key = translator_name translator
  and engine_key = engine_name engine in
  let t0 = Blas_obs.Clock.now_ns () in
  match Qcache.find_plan qc ~translator:translator_key ~engine:engine_key q with
  | Some p ->
    Option.iter (record_choice tracer ~memo:"hit" ~start_ns:t0) p.Qcache.p_choice;
    p
  | None ->
    let span name f = Blas_obs.Trace.with_span tracer name f in
    (* Auto2 prices the plan space first (statistics-only) and rebinds
       the effective translator and engine. *)
    let choice =
      match translator with
      | Auto2 ->
        let t0c = Blas_obs.Clock.now_ns () in
        let c = Optimizer.choose storage q in
        record_choice tracer ~memo:"miss" ~start_ns:t0c c;
        Some c
      | _ -> None
    in
    let exec_translator, exec_engine = effective ~engine ~translator choice in
    (* Auto2 runs the decomposition it priced. *)
    let branches () =
      let guide = Storage.guide storage in
      match (choice, exec_translator) with
      | Some c, _ -> c.Optimizer.ch_branches
      | None, Split -> Decompose.translate Decompose.Split ~guide q
      | None, Pushup -> Decompose.translate Decompose.Pushup ~guide q
      | None, Unfold -> Decompose.unfold guide q
      | None, (D_labeling | Auto2) ->
        invalid_arg "Blas.decompose: D-labeling does not decompose"
    in
    let p =
      if exec_engine = Rdbms || engine = Rdbms then begin
        let branches, sql =
          span "translate" (fun () ->
              match exec_translator with
              | D_labeling -> (None, Some (Baseline.to_sql q))
              | _ ->
                let b = branches () in
                (Some b, Translate.to_sql storage b))
        in
        let compiled =
          Option.map
            (fun s ->
              span "compile" (fun () ->
                  Blas_rel.Sql_compile.compile ~catalog:(Storage.catalog storage) s))
            sql
        in
        { Qcache.p_choice = choice; p_branches = branches; p_sql = sql; p_compiled = compiled }
      end
      else
        {
          Qcache.p_choice = choice;
          p_branches =
            (match exec_translator with
            | D_labeling -> None
            | _ -> Some (span "decompose" branches));
          p_sql = None;
          p_compiled = None;
        }
    in
    Qcache.put_plan qc ~translator:translator_key ~engine:engine_key q p;
    p

(* The planning entry points below ask for the RDBMS engine, so they
   share the memo entries of [run ~engine:Rdbms]. *)
let plan_rdbms storage translator q =
  plan storage ~engine:Rdbms ~translator q

(** [decompose storage translator q] — the suffix-path decomposition
    (union branches) a BLAS translator produces.
    @raise Invalid_argument for [D_labeling], which does not decompose. *)
let decompose storage translator q =
  match translator with
  | D_labeling -> invalid_arg "Blas.decompose: D-labeling does not decompose"
  | _ -> Option.get (plan_rdbms storage translator q).Qcache.p_branches

(** [sql_for storage translator q] — the SQL query plan each translator
    generates (Figure 11 shows these for QS3). *)
let sql_for storage translator q = (plan_rdbms storage translator q).Qcache.p_sql

(** [plan_for storage translator q] — the compiled physical plan. *)
let plan_for storage translator q = (plan_rdbms storage translator q).Qcache.p_compiled

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)

(* [ints] sorted ascending without duplicates, as a list.  Sorting is
   skipped when an O(n) check finds them strictly ascending already:
   single-access plans return their rows in clustered [start] order. *)
let sorted_unique ints =
  let n = Array.length ints in
  let rec ascending i = i >= n || (ints.(i - 1) < ints.(i) && ascending (i + 1)) in
  if n > 1 && not (ascending 1) then begin
    Array.sort Int.compare ints;
    let m = ref 1 in
    for i = 1 to n - 1 do
      if ints.(i) <> ints.(!m - 1) then begin
        ints.(!m) <- ints.(i);
        incr m
      end
    done;
    Array.to_list (Array.sub ints 0 !m)
  end
  else Array.to_list ints

(* The answer column of an executed plan's rows, as ints: the only
   projected column, or the first one named "<alias>.start" when the
   SQL projects more (a user-written star projection).  Read straight
   from the row list into an int array, which holds no pointers. *)
let starts_of_rows (schema, rows) =
  let open Blas_rel in
  let columns = Schema.columns schema in
  let answer_column =
    match columns with
    | [ only ] -> Some only
    | _ ->
      List.find_opt
        (fun c ->
          String.equal c "start"
          || (String.length c > 6
             && String.equal (String.sub c (String.length c - 6) 6) ".start"))
        columns
  in
  match answer_column with
  | Some column ->
    let i = Schema.index_of schema column in
    let ints = Array.make (List.length rows) 0 in
    List.iteri (fun k t -> ints.(k) <- Value.to_int (Tuple.get t i)) rows;
    sorted_unique ints
  | None -> invalid_arg "Blas.run: no answer column (project a start column)"

let twig_plan_djoins branches =
  List.fold_left (fun acc b -> acc + Suffix_query.djoin_count b) 0 branches

(* ------------------------------------------------------------------ *)
(* Query cache                                                        *)

(* The per-run caching decision: an explicit [?cache] overrides the
   storage's switch (so `--no-cache` and cold-reference runs bypass a
   warm cache without flushing it). *)
let qcache_for ?cache storage =
  let qc = Storage.cache storage in
  let on = match cache with Some b -> b | None -> Qcache.enabled qc in
  if on then Some qc else None

(* The P-label signature of an indexed SP access, shared by the scan
   cache and the footprint: a point interval for equality probes
   (absolute paths match exactly the interval's left endpoint), the
   fetched range otherwise. *)
let scan_signature table path =
  if String.equal (Blas_rel.Table.name table) "sp" then
    match path with
    | Blas_rel.Algebra.Index_eq
        { column = "plabel"; value = Blas_rel.Value.Int v } ->
      Some (v, v)
    | Blas_rel.Algebra.Index_range
        {
          column = "plabel";
          lo = Some (Blas_rel.Value.Int lo);
          hi = Some (Blas_rel.Value.Int hi);
        } ->
      Some (lo, hi)
    | _ -> None
  else None

(* Both engines' hook into the scan cache: an indexed SP access on the
   P-label column looks up its pre-predicate rows by exact interval
   before the page directory, and on a miss reads every column but the
   P-label and feeds the entry ({!Qcache.scan}).  Accesses on
   other columns or tables pass through untouched. *)
let scan_cache_of qc storage =
  let page_rows = Cost.model_page_rows storage in
  {
    Blas_rel.Executor.through =
      (fun table path ~cols ~fetch ->
        match scan_signature table path with
        | None -> (cols, fetch cols)
        | Some interval ->
          Qcache.scan qc interval
            ~table_cols:(Blas_rel.Schema.columns (Blas_rel.Table.schema table))
            ~cols
            ~benefit:(fun rows -> Cost.pages_for (List.length rows) ~page_rows)
            ~fetch);
  }

(* The P-intervals every item of a decomposition scans — the whole-query
   memo entry dies when an update touches a P-label inside any of them
   (a row can influence the answer only by entering some item's
   stream). *)
let footprint (storage : Storage.t) branches =
  List.concat_map
    (fun (b : Suffix_query.t) ->
      List.filter_map
        (fun (it : Suffix_query.item) ->
          Suffix_query.interval storage.Storage.guide it.path)
        b.Suffix_query.items)
    branches

let report_of_result_entry (e : Qcache.result_entry) =
  {
    starts = e.Qcache.r_starts;
    visited = 0;
    page_reads = 0;
    plan_djoins = e.Qcache.r_plan_djoins;
    memo_hits = 1;
    sql = e.Qcache.r_sql;
    counters = Blas_rel.Counters.create ();
    choice = e.Qcache.r_choice;
  }

(* Re-publishes the cache's own atomics into the installed registry
   after each cached run: entry/byte/hit-rate gauges plus mirrored
   counters (see ISSUE/DESIGN §11; `bench --json` picks these up). *)
let record_cache_metrics qc =
  match !metrics_sink with
  | None -> ()
  | Some registry ->
    let open Blas_obs.Metrics in
    let s = Qcache.stats qc in
    let tot : Blas_cache.Stats.snapshot = Qcache.totals s in
    set (gauge registry "blas.cache.entries") (float_of_int tot.entries);
    set (gauge registry "blas.cache.bytes") (float_of_int tot.bytes);
    set (gauge registry "blas.cache.hit_rate") (Qcache.hit_rate s);
    set_counter (counter registry "blas.cache.hits") tot.hits;
    set_counter (counter registry "blas.cache.misses") tot.misses;
    set_counter (counter registry "blas.cache.evictions") tot.evictions;
    set_counter (counter registry "blas.cache.invalidations") tot.invalidations

(** EXPLAIN ANALYZE state attached to a run: the counter vector the run
    charges and the collector diffing it around every operator. *)
type analysis = {
  a_counters : Blas_rel.Counters.t;
  a_collector : Blas_obs.Analyze.Collector.t;
}

(** [run ?tracer ?cache storage ~engine ~translator q] —
    plan (once per storage state: {!plan}) and execute.  With an
    enabled [tracer], the run is recorded as a [query] span over
    [translate] / [compile] / [execute] / [materialize] (RDBMS) or
    [decompose] / [execute] (twig engine; the D-labeling baseline
    builds its streams in a [build-streams] span inside [execute])
    child spans; a memoized plan records no [translate], [compile] or
    [decompose] span.

    [?cache] overrides the storage's cache switch for this run only
    ([Some false] is a guaranteed-cold reference run; the default
    follows {!Storage.cache_enabled}).  When caching is active, P-label
    scans go through the scan cache, and — for the
    suffix-path translators — the whole answer is memoized and replayed
    with zero I/O until an update touches the query's footprint.

    [?analysis] attaches an EXPLAIN ANALYZE collector (see
    {!run_analyze}): the run charges its counters and bypasses the
    whole-query memo, so the tree always reflects a real execution. *)
let run ?(tracer = Blas_obs.Trace.disabled) ?(cancel = ignore) ?cache ?analysis
    storage ~engine ~translator q =
  Log.debug (fun m ->
      m "run %s on %s: %s" (translator_name translator) (engine_name engine)
        (Blas_xpath.Pretty.to_string q));
  let qc = qcache_for ?cache storage in
  (* The query text is needed only by a trace and the result memo. *)
  let qstr = lazy (Blas_xpath.Pretty.to_string q) in
  let span name f = Blas_obs.Trace.with_span tracer name f in
  let t0 = Blas_obs.Clock.now_ns () in
  let report =
    Blas_obs.Trace.with_span tracer "query"
      ~attrs:
        (if not (Blas_obs.Trace.enabled tracer) then []
         else
           [
             ("engine", engine_name engine);
             ("translator", translator_name translator);
             ("query", Lazy.force qstr);
           ]
           @ (if Option.is_some analysis then [ ("mode", "analyze") ] else [])
           @ [ ("cache", match qc with Some _ -> "on" | None -> "off") ])
    @@ fun () ->
    (* The whole-query memo applies to the suffix-path translators only:
       D-labeling answers carry no P-interval footprint to invalidate
       against.  Auto2 memoizes under its own name and the engine asked
       for; an entry keeps the pick that produced it, so a hit plans
       nothing, and the stats epoch in the key retires entries when a
       resample may change the pick. *)
    let memo =
      match (qc, translator, analysis) with
      | Some qcv, (Split | Pushup | Unfold | Auto2), None ->
        Some
          ( qcv,
            Qcache.result_key qcv ~engine:(engine_name engine)
              ~translator:(translator_name translator) ~query:(Lazy.force qstr) )
      | _ -> None
    in
    let probe () = Option.bind memo (fun (qcv, key) -> Qcache.find_result qcv key) in
    let memo_hit =
      (* The cache-probe span is recorded post hoc so the disabled path
         pays no clock reads. *)
      if Blas_obs.Trace.enabled tracer then begin
        let t0p = Blas_obs.Clock.now_ns () in
        let hit = probe () in
        let outcome =
          match (hit, memo) with
          | Some _, _ -> "hit"
          | None, Some _ -> "miss"
          | None, None -> "off"
        in
        Blas_obs.Trace.record tracer
          ~attrs:[ ("outcome", outcome) ]
          ~name:"cache-probe" ~start_ns:t0p
          ~duration_ns:(Blas_obs.Clock.elapsed_ns t0p) ();
        hit
      end
      else probe ()
    in
    match memo_hit with
    | Some entry ->
      Option.iter
        (record_choice tracer ~memo:"hit" ~start_ns:(Blas_obs.Clock.now_ns ()))
        entry.Qcache.r_choice;
      report_of_result_entry entry
    | None ->
      let p = plan ~tracer storage ~engine ~translator q in
      let choice = p.Qcache.p_choice in
      let _, engine = effective ~engine ~translator choice in
      (* Phase-boundary cancellation checks; the engines add one per
         operator / stream below. *)
      cancel ();
      let counters, collector =
        match analysis with
        | Some a -> (a.a_counters, Some a.a_collector)
        | None -> (Blas_rel.Counters.create (), None)
      in
      let scan_cache = Option.map (fun qc -> scan_cache_of qc storage) qc in
      let starts, plan_djoins, sql =
        match engine with
        | Rdbms -> (
          match p.Qcache.p_compiled with
          | None -> ([], 0, None)
          | Some compiled ->
            let result =
              span "execute" (fun () ->
                  Blas_rel.Executor.run ~counters ~cancel ?cache:scan_cache
                    ?collector compiled)
            in
            let starts = span "materialize" (fun () -> starts_of_rows result) in
            (starts, Blas_rel.Algebra.count_djoins compiled, p.Qcache.p_sql))
        | Twig ->
          let joins, plan_djoins =
            match p.Qcache.p_branches with
            | None ->
              ( [
                  {
                    Engine_twig.label = "twig join (D-labeling)";
                    build =
                      (fun ~wrap counters ->
                        span "build-streams" (fun () ->
                            Baseline.to_pattern ~wrap storage counters q));
                  };
                ],
                Blas_xpath.Ast.step_count q - 1 )
            | Some b ->
              ( Engine_twig.branch_joins ~cancel ?cache:scan_cache storage b,
                twig_plan_djoins b )
          in
          let starts =
            span "execute" (fun () ->
                Engine_twig.run ~cancel ?collector counters joins)
          in
          (starts, plan_djoins, None)
      in
      let report =
        {
          starts;
          visited = counters.Blas_rel.Counters.tuples_read;
          page_reads = counters.Blas_rel.Counters.page_reads;
          plan_djoins;
          memo_hits = 0;
          sql;
          counters;
          choice;
        }
      in
      (match (memo, p.Qcache.p_branches) with
      | Some (qcv, key), Some branches ->
        Qcache.put_result qcv key
          ~benefit:
            (max 1
               (Cost.pages_for report.visited
                  ~page_rows:(Cost.model_page_rows storage)))
          {
            Qcache.r_starts = report.starts;
            r_plan_djoins = report.plan_djoins;
            r_sql = report.sql;
            r_choice = choice;
            r_footprint = footprint storage branches;
          }
      | _ -> ());
      report
  in
  (* Metrics label by the engine that actually ran (the Auto2 pick when
     there is one) under the requested translator name. *)
  record_metrics ~engine:(executed_engine ~engine report) ~translator
    ~elapsed_ns:(Blas_obs.Clock.elapsed_ns t0)
    report.counters;
  Option.iter record_cache_metrics qc;
  report

(** [run_analyze ?tracer ?cache storage ~engine ~translator q] — EXPLAIN
    ANALYZE: {!run} with a collector attached, also returning the
    annotated operator tree: a [query] root (rows = answers) over the
    executed physical plan (RDBMS) or the per-join twig trees (twig
    engine).  Summing [self] over the tree reconciles exactly with
    [report.counters].  The root label names the Auto2 pick, estimated
    vs. measured, and — with caching active — this run's cache delta;
    the scan cache participates (served scans show zero I/O in their
    nodes). *)
let run_analyze ?tracer ?cache storage ~engine ~translator q =
  let counters = Blas_rel.Counters.create () in
  let analysis =
    {
      a_counters = counters;
      a_collector =
        Blas_obs.Analyze.Collector.create ~snapshot:(fun () ->
            Blas_rel.Counters.analyze_stats counters);
    }
  in
  let qc = qcache_for ?cache storage in
  let before = Option.map Qcache.stats qc in
  let t0 = Blas_obs.Clock.now_ns () in
  let report = run ?tracer ?cache ~analysis storage ~engine ~translator q in
  let elapsed_ns = Blas_obs.Clock.elapsed_ns t0 in
  let engine = executed_engine ~engine report in
  let cache_note =
    match (qc, before) with
    | Some qcv, Some before ->
      let d = Qcache.diff_stats ~before ~after:(Qcache.stats qcv) in
      let tot : Blas_cache.Stats.snapshot = Qcache.totals d in
      Format.sprintf " (cache: %d hits, %d misses)" tot.hits tot.misses
    | _ -> ""
  in
  (* The pick, estimated vs. measured, on the root — as a label note
     rather than a child node, preserving the invariant that the
     children's [self] stats sum to the counters. *)
  let plan_note =
    match report.choice with
    | None -> ""
    | Some c ->
      Format.sprintf " plan=%s est=%.0f actual=%.0f" (Optimizer.label c)
        c.Optimizer.ch_est_cost
        (actual_cost ~engine report)
  in
  let root =
    Blas_obs.Analyze.make
      ~label:
        (Format.sprintf "query %s [%s on %s]%s%s"
           (Blas_xpath.Pretty.to_string q)
           (translator_name translator)
           (engine_name engine) plan_note cache_note)
      ~kind:"query"
      ~rows:(List.length report.starts)
      ~elapsed_ns
      (Blas_obs.Analyze.Collector.roots analysis.a_collector)
  in
  (report, root)

(** [union reports] — the report of a union of tree queries: answers
    united, costs summed, the SQL the UNION of the per-query SQL. *)
let union reports =
  let sqls = List.filter_map (fun r -> r.sql) reports in
  let counters = Blas_rel.Counters.create () in
  List.iter (fun r -> Blas_rel.Counters.add ~into:counters r.counters) reports;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    starts =
      List.sort_uniq Int.compare (List.concat_map (fun r -> r.starts) reports);
    visited = sum (fun r -> r.visited);
    page_reads = sum (fun r -> r.page_reads);
    plan_djoins = sum (fun r -> r.plan_djoins);
    memo_hits = sum (fun r -> r.memo_hits);
    (* the first branch's pick represents the union in reports (all
       branches consult the same statistics) *)
    choice = List.find_map (fun r -> r.choice) reports;
    counters;
    sql =
      (match sqls with
      | [] -> None
      | [ sql ] -> Some sql
      | sqls ->
        Some
          (Blas_rel.Sql_ast.Union
             (List.concat_map
                (function Blas_rel.Sql_ast.Union qs -> qs | q -> [ q ])
                sqls)));
  }

(** [answers storage ~engine ~translator q] — just the result set. *)
let answers storage ~engine ~translator q = (run storage ~engine ~translator q).starts

(** [oracle storage q] — the naive tree-pattern evaluator, the
    correctness reference. *)
let oracle (storage : Storage.t) q =
  Blas_xpath.Naive_eval.starts (Storage.doc storage) q
