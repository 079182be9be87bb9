(** Adaptive-optimizer pick quality.

    For every Figure 10 query on every full-scale data set, measure all
    six sequential candidates ({Split, Push-up, Unfold} x {RDBMS,
    TwigJoin}) directly, then ask [Auto2] which one it would run and
    compare: a pick is {e accurate} when its measured latency is within
    {!accuracy_slack} of the measured best.  The section reports the
    chosen-vs-best ratio per query and the overall pick accuracy; with
    [--check] (the CI gate, shared with the overhead section) an
    accuracy below {!accuracy_floor} marks the run failed.

    The candidates are timed with the query cache off so every
    measurement prices a real execution, and the [Auto2] pick itself is
    taken from the report of a real (uncached, sequential) run — the
    same code path users hit, not a replay of the planner. *)

let accuracy_slack = 1.5

let accuracy_floor = 0.8

let repetitions = 5

(* Ratios below timer/scheduler resolution say nothing about the pick:
   a 10us-vs-20us "2x miss" is noise.  A pick also counts as accurate
   when it is within this absolute distance of the best. *)
let noise_floor_s = 0.25e-3

let candidates =
  [
    (Blas.Split, Blas.Rdbms);
    (Blas.Pushup, Blas.Rdbms);
    (Blas.Unfold, Blas.Rdbms);
    (Blas.Split, Blas.Twig);
    (Blas.Pushup, Blas.Twig);
    (Blas.Unfold, Blas.Twig);
  ]

let candidate_name (translator, engine) =
  Printf.sprintf "%s/%s"
    (Blas.translator_name translator)
    (match engine with Blas.Rdbms -> "rdbms" | Blas.Twig -> "twig")

(* One warm-up run of every candidate (plan construction, buffer-pool
   population), then the minimum over the repetitions: pick quality is
   judged on each candidate's steady-state latency, and the minimum is
   the standard noise-robust estimator for that (means drag in GC
   pauses).  The repetitions go round-robin over the candidates, so a
   host stall lands on one repetition of several candidates rather than
   on every repetition of one. *)
let time_candidates storage query =
  let run (translator, engine) () =
    Blas.run ~cache:false storage ~engine ~translator query
  in
  List.iter (fun c -> ignore (run c ())) candidates;
  let best = Array.make (List.length candidates) infinity in
  for _ = 1 to repetitions do
    List.iteri
      (fun i c ->
        let _, t = Bench_util.time_once (run c) in
        best.(i) <- Float.min best.(i) t)
      candidates
  done;
  List.mapi (fun i c -> (c, best.(i))) candidates

(* The pick's (translator, engine) as measured-candidate coordinates. *)
let pick_of_choice (c : Blas.Optimizer.choice) =
  let translator =
    match c.Blas.Optimizer.ch_translator with
    | Blas.Optimizer.Planner.Split -> Blas.Split
    | Blas.Optimizer.Planner.Pushup -> Blas.Pushup
    | Blas.Optimizer.Planner.Unfold -> Blas.Unfold
  in
  let engine =
    match c.Blas.Optimizer.ch_engine with
    | Blas.Optimizer.Planner.Rdbms -> Blas.Rdbms
    | Blas.Optimizer.Planner.Twig -> Blas.Twig
  in
  (translator, engine)

type outcome = {
  o_id : string;
  o_chosen : string;
  o_best : string;
  o_ratio : float;  (** chosen time / best time *)
  o_spread : float;  (** worst time / chosen time *)
  o_accurate : bool;
  o_times : ((Blas.translator * Blas.engine) * float) list;
}

let sweep_one storage (id, qs) =
  let query = Blas.query qs in
  let timed = time_candidates storage query in
  let auto2 =
    Blas.run ~cache:false storage ~engine:Blas.Rdbms ~translator:Blas.Auto2
      query
  in
  let chosen =
    match auto2.Blas.choice with
    | Some c -> pick_of_choice c
    | None -> (Blas.Pushup, Blas.Rdbms)
  in
  let chosen_t = List.assoc chosen timed in
  let best, best_t =
    List.fold_left
      (fun (bc, bt) (c, t) -> if t < bt then (c, t) else (bc, bt))
      (List.hd timed |> fun (c, t) -> (c, t))
      (List.tl timed)
  in
  let _, worst_t =
    List.fold_left
      (fun (wc, wt) (c, t) -> if t > wt then (c, t) else (wc, wt))
      (List.hd timed |> fun (c, t) -> (c, t))
      (List.tl timed)
  in
  {
    o_id = id;
    o_chosen = candidate_name chosen;
    o_best = candidate_name best;
    o_ratio = chosen_t /. best_t;
    o_spread = worst_t /. chosen_t;
    o_accurate =
      chosen_t <= (accuracy_slack *. best_t) +. noise_floor_s;
    o_times = timed;
  }

(* Each data set's index is built locally and dies with its sweep, and
   the heap is compacted first: candidates are compared on latency, and
   a process-wide heap grown by the other data sets taxes
   allocation-heavy candidates (twig streams, unfold unions) enough to
   scramble the comparison. *)
let sweep label make_storage queries =
  Gc.compact ();
  let storage = make_storage () in
  let outcomes = List.map (sweep_one storage) queries in
  Bench_util.print_table
    ~title:(Printf.sprintf "(%s) candidate latency, ms" label)
    {
      Bench_util.header = "query" :: List.map candidate_name candidates;
      rows =
        List.map
          (fun o ->
            o.o_id
            :: List.map
                 (fun c ->
                   Printf.sprintf "%.2f" (1e3 *. List.assoc c o.o_times))
                 candidates)
          outcomes;
    };
  Bench_util.print_table
    ~title:(Printf.sprintf "(%s) Auto2 pick vs measured candidates" label)
    {
      Bench_util.header =
        [ "query"; "chosen"; "measured best"; "chosen/best"; "worst/chosen"; "accurate" ];
      rows =
        List.map
          (fun o ->
            [
              o.o_id;
              o.o_chosen;
              o.o_best;
              Printf.sprintf "%.2fx" o.o_ratio;
              Printf.sprintf "%.2fx" o.o_spread;
              (if o.o_accurate then "yes" else "NO");
            ])
          outcomes;
    };
  outcomes

let run () =
  Bench_util.heading
    "Adaptive optimizer: pick accuracy on the Figure 10 queries";
  let sh =
    sweep "Shakespeare"
      (fun () -> Blas.index_of_tree (Datasets.shakespeare_tree ()))
      Bench_queries.shakespeare
  in
  let pr =
    sweep "Protein"
      (fun () -> Blas.index_of_tree (Datasets.protein_tree ()))
      Bench_queries.protein
  in
  let au =
    sweep "Auction"
      (fun () -> Blas.index_of_tree (Datasets.auction_tree ()))
      Bench_queries.auction
  in
  let outcomes = sh @ pr @ au in
  let total = List.length outcomes in
  let accurate = List.length (List.filter (fun o -> o.o_accurate) outcomes) in
  let accuracy = float_of_int accurate /. float_of_int (max total 1) in
  let beats_worst_2x =
    List.length (List.filter (fun o -> o.o_spread >= 2.0) outcomes)
  in
  Bench_util.print_table ~title:"pick-quality summary"
    {
      Bench_util.header = [ "metric"; "value" ];
      rows =
        [
          [ "queries"; string_of_int total ];
          [
            Printf.sprintf "accurate picks (chosen <= %.1fx best)" accuracy_slack;
            Printf.sprintf "%d (%.0f%%)" accurate (100.0 *. accuracy);
          ];
          [
            "queries where the pick beats the worst candidate >= 2x";
            string_of_int beats_worst_2x;
          ];
        ];
    };
  if !Overhead.check_mode && accuracy < accuracy_floor then begin
    Printf.printf "FAIL: pick accuracy %.0f%% below the %.0f%% floor\n"
      (100.0 *. accuracy) (100.0 *. accuracy_floor);
    Overhead.failed := true
  end
