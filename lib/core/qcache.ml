(** The per-storage query cache — see the interface for the layer and
    epoch design. *)

module Lru = Blas_cache.Lru
module Stats = Blas_cache.Stats
module Interval = Blas_label.Interval

type result_entry = {
  r_starts : int list;
  r_plan_djoins : int;
  r_sql : Blas_rel.Sql_ast.t option;
  r_footprint : Blas_label.Interval.t list;
}

(* A scan entry: the columns its access read (table order) and the
   rows it fetched, before any value predicate. *)
type scan_entry = { s_cols : string list; s_rows : Blas_rel.Tuple.t list }

type t = {
  results : (string, result_entry) Lru.t;
  scans : (Interval.t, scan_entry) Lru.t;
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

(* A scan entry: a fixed overhead plus, per row, the list cell and the
   tuple header (32 bytes) and per column a slot and a boxed value
   (24 bytes; strings and P-labels run longer). *)
let scan_weight e =
  128 + (List.length e.s_rows * (32 + (24 * List.length e.s_cols)))

let create ?stripes ?capacity_bytes () =
  {
    results = Lru.create ?stripes ?capacity_bytes ~weight:result_weight ();
    scans = Lru.create ?stripes ?capacity_bytes ~weight:scan_weight ();
    enabled = Atomic.make false;
    epoch = 0;
    stats_epoch = 0;
  }

let enabled t = Atomic.get t.enabled

let set_enabled t on = Atomic.set t.enabled on

let clear t =
  Lru.clear t.results;
  Lru.clear t.scans;
  t.epoch <- t.epoch + 1

let stats_epoch t = t.stats_epoch

let bump_stats_epoch t = t.stats_epoch <- t.stats_epoch + 1

let result_key t ~engine ~translator ~query =
  Printf.sprintf "%d.%d|%s|%s|%s" t.epoch t.stats_epoch engine translator query

let find_result t key = Lru.find t.results key

let put_result t key ~benefit entry = Lru.put t.results ~benefit key entry

let find_scan t interval ~cols =
  let covers e = List.for_all (fun c -> List.mem c e.s_cols) cols in
  Option.map
    (fun e -> (e.s_cols, e.s_rows))
    (Lru.find ~accept:covers t.scans interval)

let put_scan t interval ~benefit ~cols rows =
  Lru.put t.scans ~benefit interval { s_cols = cols; s_rows = rows }

(* No generated plan reads the P-label, so an entry holds it only when
   the filling access asked for it, and every other column always. *)
let scan t interval ~table_cols ~cols ~benefit ~fetch =
  match find_scan t interval ~cols with
  | Some entry -> entry
  | None ->
    let wide =
      List.filter (fun c -> List.mem c cols || not (String.equal c "plabel")) table_cols
    in
    let rows = fetch wide in
    put_scan t interval ~benefit:(benefit rows) ~cols:wide rows;
    (wide, rows)

let touched ~plabels interval =
  List.exists (fun p -> Interval.mem p interval) plabels

let invalidate t ~full ~schema_changed ~plabels =
  if full then clear t
  else begin
    if schema_changed then begin
      Lru.clear t.results;
      t.epoch <- t.epoch + 1
    end;
    if plabels <> [] then begin
      ignore
        (Lru.filter_in_place t.results (fun _ e ->
             not (List.exists (touched ~plabels) e.r_footprint)));
      ignore
        (Lru.filter_in_place t.scans (fun interval _ ->
             not (touched ~plabels interval)))
    end
  end

type stats = {
  results : Stats.snapshot;
  streams : Stats.snapshot;
}

let stats (t : t) =
  {
    results = Stats.snapshot (Lru.stats t.results);
    streams = Stats.snapshot (Lru.stats t.scans);
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

let validate (t : t) =
  Lru.validate t.results;
  Lru.validate t.scans
