(** The adaptive optimizer — see the interface for the design. *)

module Stats = Blas_optimizer.Stats
module Planner = Blas_optimizer.Planner

type choice = {
  ch_translator : Planner.translator_kind;
  ch_engine : Planner.engine_kind;
  ch_degree : int;
  ch_est_cost : float;
  ch_candidates : Planner.candidate list;
  ch_from_stats : bool;
}

let label c =
  Planner.label
    {
      Planner.cd_translator = c.ch_translator;
      cd_engine = c.ch_engine;
      cd_degree = c.ch_degree;
      cd_cost = c.ch_est_cost;
    }

(* Past this many union branches the Unfold expansion of a recursive
   schema is not worth pricing. *)
let unfold_limit = 64

let shape_of tk estimate =
  {
    Planner.sh_translator = tk;
    sh_visited = estimate.Cost.e_visited;
    sh_join_input = estimate.Cost.e_join_input;
    sh_djoins = estimate.Cost.e_djoins;
    sh_branches = estimate.Cost.e_branches;
  }

(* The candidate translations, shaped from statistics.  Decomposition
   reads only the resident DataGuide (never the tables), so this is
   probe-free by construction. *)
let shapes storage stats q =
  let guide = Storage.guide storage in
  let split = Decompose.translate Decompose.Split ~guide q in
  let pushup = Decompose.translate Decompose.Pushup ~guide q in
  let unfolded = Decompose.unfold guide q in
  let with_unfold =
    if List.length unfolded > unfold_limit then []
    else [ (Planner.Unfold, unfolded) ]
  in
  List.map
    (fun (tk, branches) -> shape_of tk (Cost.estimate_decomposition stats branches))
    ((Planner.Split, split) :: (Planner.Pushup, pushup) :: with_unfold)

(* Without statistics the pick degrades to the library's historical
   default rather than guessing from nothing. *)
let default_choice =
  {
    ch_translator = Planner.Pushup;
    ch_engine = Planner.Rdbms;
    ch_degree = 1;
    ch_est_cost = 0.;
    ch_candidates = [];
    ch_from_stats = false;
  }

let choose ?pool storage q =
  match Storage.ostats storage with
  | None -> default_choice
  | Some stats -> (
    let max_degree = match pool with None -> 1 | Some p -> Blas_par.Pool.size p in
    match
      Planner.enumerate
        ~page_rows:(Cost.model_page_rows storage)
        ~max_degree (shapes storage stats q)
    with
    | [] -> default_choice
    | best :: _ as candidates ->
      {
        ch_translator = best.Planner.cd_translator;
        ch_engine = best.Planner.cd_engine;
        ch_degree = best.Planner.cd_degree;
        ch_est_cost = best.Planner.cd_cost;
        ch_candidates = candidates;
        ch_from_stats = true;
      })

let actual_cost ~engine (c : Blas_rel.Counters.t) =
  Planner.actual_cost ~engine ~tuples:c.Blas_rel.Counters.tuples_read
    ~pages:c.Blas_rel.Counters.page_reads
    ~join_tuples:c.Blas_rel.Counters.intermediate
    ~djoins:c.Blas_rel.Counters.djoins ~seeks:c.Blas_rel.Counters.index_seeks

let stats_of = Storage.ostats

let refresh ?seed storage =
  let prev = Storage.ostats storage in
  let seed =
    match (seed, prev) with
    | Some s, _ -> s
    | None, Some p -> Stats.seed p
    | None, None -> Stats.default_seed ()
  in
  let epoch = match prev with Some p -> Stats.epoch p + 1 | None -> 0 in
  let stats = Storage.collect_ostats ~seed ~epoch (Storage.doc storage) in
  Storage.set_ostats storage (Some stats);
  Qcache.bump_stats_epoch (Storage.cache storage)

let note_update storage (r : Blas_update.Update_engine.report) =
  match Storage.ostats storage with
  | None -> ()
  | Some stats ->
    if r.table_rebuilt || r.invalidation.inv_full then refresh storage
    else begin
      (* Relabelings move D-labels but change no tag, path, fan-out or
         value population, so only structural/text churn ages the
         sample; every edit touches at least one node. *)
      Stats.note_edits stats (max 1 (r.nodes_inserted + r.nodes_deleted));
      if Stats.is_stale stats then refresh storage
    end
