(** The adaptive optimizer — see the interface for the design. *)

module Stats = Blas_optimizer.Stats
module Planner = Blas_optimizer.Planner

type choice = Qcache.choice = {
  ch_translator : Planner.translator_kind;
  ch_engine : Planner.engine_kind;
  ch_est_cost : float;
  ch_candidates : Planner.candidate list;
  ch_from_stats : bool;
  ch_branches : Suffix_query.t list;
}

let label c =
  Planner.label
    {
      Planner.cd_translator = c.ch_translator;
      cd_engine = c.ch_engine;
      cd_cost = c.ch_est_cost;
    }

let shape_of tk estimate =
  {
    Planner.sh_translator = tk;
    sh_visited = estimate.Cost.e_visited;
    sh_join_input = estimate.Cost.e_join_input;
    sh_djoins = estimate.Cost.e_djoins;
    sh_branches = estimate.Cost.e_branches;
  }

(* The candidate translations.  Split and Push-up grow with the query
   alone (a [*] is one all-elements item); only Unfold expands against
   the resident DataGuide, and it drops out past
   {!Decompose.expansion_bound}.  None reads the tables, so pricing is
   probe-free by construction. *)
let decompositions storage q =
  let guide = Storage.guide storage in
  (Planner.Split, Decompose.translate Decompose.Split ~guide q)
  :: (Planner.Pushup, Decompose.translate Decompose.Pushup ~guide q)
  :: Option.to_list
       (Option.map (fun b -> (Planner.Unfold, b)) (Decompose.unfold_opt guide q))

(* Without statistics the pick degrades to the library's historical
   default rather than guessing from nothing. *)
let default_choice storage q =
  {
    ch_translator = Planner.Pushup;
    ch_engine = Planner.Rdbms;
    ch_est_cost = 0.;
    ch_candidates = [];
    ch_from_stats = false;
    ch_branches =
      Decompose.translate Decompose.Pushup ~guide:(Storage.guide storage) q;
  }

let choose storage q =
  match Storage.ostats storage with
  | None -> default_choice storage q
  | Some stats -> (
    let decomps = decompositions storage q in
    match
      Planner.enumerate
        ~page_rows:(Cost.model_page_rows storage)
        (List.map
           (fun (tk, branches) ->
             shape_of tk
               (Cost.estimate_decomposition ~guide:(Storage.guide storage) stats
                  branches))
           decomps)
    with
    | [] -> default_choice storage q
    | best :: _ as candidates ->
      {
        ch_translator = best.Planner.cd_translator;
        ch_engine = best.Planner.cd_engine;
        ch_est_cost = best.Planner.cd_cost;
        ch_candidates = candidates;
        ch_from_stats = true;
        ch_branches = List.assoc best.Planner.cd_translator decomps;
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
  let stats =
    Stats.collect ~seed ~epoch
      (Blas_update.Columns.iter_values (Storage.columns storage))
  in
  Storage.set_ostats storage (Some stats);
  Qcache.bump_stats_epoch (Storage.cache storage)

let note_update storage (r : Blas_update.Update_engine.report) =
  match Storage.ostats storage with
  | None -> ()
  | Some stats ->
    if r.invalidation.inv_full then refresh storage
    else begin
      (* Relabelings move D-labels but change no path or value
         population, so only structural/text churn ages the statistics'
         guide and sample; every edit touches at least one node. *)
      Stats.note_edits stats (max 1 (r.nodes_inserted + r.nodes_deleted));
      if Stats.is_stale stats ~guide:(Storage.guide storage) then refresh storage
    end
