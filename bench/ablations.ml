(** Ablation benches for the design choices DESIGN.md calls out. *)

(* ------------------------------------------------------------------ *)
(* 1. Clustering by {plabel, start}: rebuild the SP relation clustered
   by start alone, so its page directory no longer serves P-label
   selections and every suffix-path selection degrades to a scan.
   This isolates the paper's claim that BLAS's savings come from
   clustered P-label access (Section 4.2, point 2). *)

let storage_without_plabel_index (storage : Blas.Storage.t) =
  let sp = storage.Blas.Storage.sp in
  let rows = Array.to_list (Blas_rel.Relation.tuples (Blas_rel.Table.relation sp)) in
  let sp_noindex =
    Blas_rel.Table.load (Blas_rel.Table.store sp) ~name:"sp"
      ~schema:(Blas_rel.Table.schema sp)
      ~cluster_key:[ "start" ]
      rows
  in
  { storage with Blas.Storage.sp = sp_noindex }

let clustering () =
  Bench_util.heading
    "Ablation: P-label clustering/index removed (Split plans degrade to scans)";
  let storage = Datasets.protein_full () in
  let degraded = storage_without_plabel_index storage in
  let rows =
    List.map
      (fun (id, qs) ->
        let query = Blas.query qs in
        let with_index, t1 =
          Bench_util.measure (fun () ->
              Blas.run storage ~engine:Blas.Rdbms ~translator:Blas.Pushup query)
        in
        let without, t2 =
          Bench_util.measure (fun () ->
              Blas.run degraded ~engine:Blas.Rdbms ~translator:Blas.Pushup query)
        in
        [
          id;
          Bench_util.seconds t1;
          Bench_util.thousands with_index.Blas.visited;
          Bench_util.seconds t2;
          Bench_util.thousands without.Blas.visited;
          (if with_index.Blas.starts = without.Blas.starts then "yes" else "NO");
        ])
      Bench_queries.protein
  in
  Bench_util.print_table
    {
      Bench_util.header =
        [ "query"; "clustered (s)"; "visited"; "unclustered (s)"; "visited";
          "same answer" ];
      rows;
    }

(* ------------------------------------------------------------------ *)
(* 2. Level-gap predicates: branch elimination records exact level
   differences (Example 4.1).  Dropping them to plain D-joins changes
   the answers — child predicates silently become descendant
   predicates — so the gaps are a correctness ingredient, not an
   optimization. *)

let strip_gaps (d : Blas.Suffix_query.t) =
  {
    d with
    Blas.Suffix_query.joins =
      List.map
        (fun (j : Blas.Suffix_query.join) ->
          { j with Blas.Suffix_query.gap = Blas.Suffix_query.At_least 1 })
        d.Blas.Suffix_query.joins;
  }

let level_gaps () =
  Bench_util.heading
    "Ablation: level-gap predicates stripped from Split's D-joins";
  (* The recursive Auction data distinguishes child from descendant:
     without the recorded gaps, [x] branch predicates silently become
     [.//x] and may return extra answers.  Split is the interesting
     translator here — Push-up's pushed-up prefixes already pin the
     parent tag for depth-1 branches, masking the gap's contribution. *)
  let storage = Datasets.auction_full () in
  let queries =
    [
      ("listitem[parlist]", "//listitem[parlist]");
      ("description[text]", "//description[text]");
      ("QA3", Bench_queries.qa3);
    ]
  in
  let rows =
    List.map
      (fun (id, qs) ->
        let query = Blas.query qs in
        let branches = Blas.decompose storage Blas.Split query in
        let run branches =
          Blas.Engine_twig.run (Blas_rel.Counters.create ())
            (Blas.Engine_twig.branch_joins storage branches)
        in
        let exact = run branches in
        let stripped = run (List.map strip_gaps branches) in
        let oracle = Blas.oracle storage query in
        [
          id;
          string_of_int (List.length exact);
          string_of_int (List.length stripped);
          (if exact = oracle then "yes" else "NO");
          (if stripped = oracle then "yes" else "NO (wrong answers)");
        ])
      queries
  in
  Bench_util.print_table
    {
      Bench_util.header =
        [ "query"; "#results (exact gaps)"; "#results (stripped)";
          "exact correct"; "stripped correct" ];
      rows;
    }

(* ------------------------------------------------------------------ *)
(* 3. Merge-based structural join vs nested-loop theta join: rewrite
   every D-join in the plan into the equivalent theta join and compare.
   This separates the labeling contribution from the join-algorithm
   contribution. *)

let rec denature plan =
  let open Blas_rel.Algebra in
  match plan with
  | Access _ -> plan
  | Select (p, sub) -> Select (p, denature sub)
  | Project (cols, sub) -> Project (cols, denature sub)
  | Distinct sub -> Distinct (denature sub)
  | Union subs -> Union (List.map denature subs)
  | Theta_join (p, a, b) -> Theta_join (p, denature a, denature b)
  | Djoin (spec, a, b) ->
    let pred =
      conj
        (Cmp (Lt, Col spec.anc_start, Col spec.desc_start))
        (Cmp (Gt, Col spec.anc_end, Col spec.desc_end))
    in
    (match spec.gap with
    | Any_gap -> Theta_join (pred, denature a, denature b)
    | Exact_gap _ | Min_gap _ ->
      (* Level arithmetic is not expressible as a theta-join operand;
         keep those D-joins (only Any_gap joins are ablated). *)
      Djoin (spec, denature a, denature b))

let join_algorithm () =
  Bench_util.heading
    "Ablation: merge structural join vs nested-loop theta join";
  let storage = Datasets.shakespeare_x20 () in
  let queries =
    [ ("//PLAY//LINE", "//PLAY//LINE"); ("//ACT//SPEECH", "//ACT//SPEECH") ]
  in
  let rows =
    List.filter_map
      (fun (id, qs) ->
        let query = Blas.query qs in
        match Blas.sql_for storage Blas.Split query with
        | None -> None
        | Some sql ->
          let plan =
            Blas_rel.Sql_compile.compile ~catalog:(Blas.Storage.catalog storage) sql
          in
          let run p =
            Bench_util.measure ~repetitions:5 (fun () ->
                Blas_rel.Relation.cardinality (Blas_rel.Executor.run p))
          in
          let n1, t_merge = run plan in
          let n2, t_nested = run (denature plan) in
          Some
            [
              id;
              Bench_util.seconds t_merge;
              Bench_util.seconds t_nested;
              Printf.sprintf "%.1fx" (t_nested /. t_merge);
              (if n1 = n2 then "yes" else "NO");
            ])
      queries
  in
  Bench_util.print_table
    {
      Bench_util.header =
        [ "query"; "merge join (s)"; "nested loop (s)"; "slowdown"; "same answer" ];
      rows;
    }

(* ------------------------------------------------------------------ *)
(* 4. Equality vs range selections: the Unfold advantage of Section
   5.2.2, quantified as visited tuples per selection kind. *)

let selection_kinds () =
  Bench_util.heading
    "Ablation: equality vs range selections (Push-up vs Unfold access paths)";
  let storage = Datasets.auction_full () in
  let rows =
    List.map
      (fun (id, qs) ->
        let query = Blas.query qs in
        let profile translator =
          match Blas.plan_for storage translator query with
          | Some plan ->
            let p = Blas_rel.Algebra.selection_profile plan in
            Printf.sprintf "%d eq / %d range" p.Blas_rel.Algebra.equality p.range
          | None -> "-"
        in
        let visited translator =
          Bench_util.thousands
            (Blas.run storage ~engine:Blas.Rdbms ~translator query).Blas.visited
        in
        [
          id;
          profile Blas.Pushup;
          visited Blas.Pushup;
          profile Blas.Unfold;
          visited Blas.Unfold;
        ])
      Bench_queries.auction
  in
  Bench_util.print_table
    {
      Bench_util.header =
        [ "query"; "Push-up selections"; "visited"; "Unfold selections"; "visited" ];
      rows;
    }

let all () =
  clustering ();
  level_gaps ();
  join_algorithm ();
  selection_kinds ()
