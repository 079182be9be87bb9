(** The per-storage query cache — see the interface for the layer and
    epoch design. *)

module Lru = Blas_cache.Lru
module Semantic = Blas_cache.Semantic
module Stats = Blas_cache.Stats

type result_entry = {
  r_starts : int list;
  r_plan_djoins : int;
  r_sql : Blas_rel.Sql_ast.t option;
  r_footprint : Blas_label.Interval.t list;
}

type t = {
  sem : Semantic.t;
  results : (string, result_entry) Lru.t;
  enabled : bool Atomic.t;
  (* Epoch bumps happen only inside update application, which is
     single-writer; queries read it racily, which at worst misses a
     concurrent edit the caller was racing anyway. *)
  mutable epoch : int;
  (* Advanced when the optimizer's statistics are resampled: Auto2
     picks depend on the stats, so answers memoized under a pick must
     not outlive them.  Kept apart from the schema epoch because a
     resample changes no translation — only choices. *)
  mutable stats_epoch : int;
}

(* Weight model: a result entry carries the answer list and the
   footprint. *)
let result_weight e =
  128 + (16 * List.length e.r_starts) + (48 * List.length e.r_footprint)

let create ?stripes ?capacity_bytes () =
  {
    (* SP column layout: plabel, start, end, level, data. *)
    sem =
      Semantic.create ?stripes ?capacity_bytes ~plabel_index:0 ~start_index:1
        ~end_index:2 ~data_index:4 ();
    results = Lru.create ?stripes ?capacity_bytes ~weight:result_weight ();
    enabled = Atomic.make false;
    epoch = 0;
    stats_epoch = 0;
  }

let enabled t = Atomic.get t.enabled

let set_enabled t on = Atomic.set t.enabled on

let clear t =
  Semantic.clear t.sem;
  Lru.clear t.results;
  t.epoch <- t.epoch + 1

let schema_epoch t = t.epoch

let stats_epoch t = t.stats_epoch

let bump_stats_epoch t = t.stats_epoch <- t.stats_epoch + 1

let result_key t ~engine ~translator ~query =
  Printf.sprintf "%d.%d|%s|%s|%s" t.epoch t.stats_epoch engine translator query

let find_result t key = Lru.find t.results key

let put_result t key ~benefit entry = Lru.put t.results ~benefit key entry

let semantic t = t.sem

let result_touched ~plabels (e : result_entry) =
  List.exists
    (fun p -> List.exists (Blas_label.Interval.mem p) e.r_footprint)
    plabels

let invalidate t ~full ~schema_changed ~plabels ~drange =
  if full then clear t
  else begin
    if schema_changed then begin
      Lru.clear t.results;
      t.epoch <- t.epoch + 1
    end
    else if plabels <> [] then
      ignore
        (Lru.filter_in_place t.results (fun _ e ->
             not (result_touched ~plabels e)));
    if plabels <> [] || drange <> None then
      ignore (Semantic.invalidate t.sem ~plabels ~drange)
  end

type stats = {
  results : Stats.snapshot;
  streams : Stats.snapshot;
}

let stats (t : t) =
  {
    results = Stats.snapshot (Lru.stats t.results);
    streams = Stats.snapshot (Semantic.stats t.sem);
  }

let totals s = Stats.sum s.results s.streams

let hit_rate s = Stats.hit_rate (totals s)

let diff_stats ~before ~after =
  {
    results = Stats.diff ~before:before.results ~after:after.results;
    streams = Stats.diff ~before:before.streams ~after:after.streams;
  }

let pp_stats ppf s =
  Format.fprintf ppf "@[<v>results: %a@,streams: %a@]" Stats.pp s.results
    Stats.pp s.streams

let validate t =
  Semantic.validate t.sem;
  Lru.validate t.results
