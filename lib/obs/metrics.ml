(** The metrics registry: named counters, gauges and log-scale latency
    histograms, with aligned-text and JSON exporters.

    Metrics are identified by name plus an optional label set (e.g.
    [blas.query.latency_ns{engine=RDBMS,translator=Push-up}]); looking a
    metric up is a hash-table probe, so callers on hot paths should
    resolve the handle once and hold on to it — recording through a
    handle is one atomic update (counters, gauges) or one short
    critical section (histograms).

    Domain safety: registration and the exporters serialize on a
    per-registry mutex, counters and gauges are atomics, and each
    histogram carries its own mutex, so requests running on several
    domains can register and record without tearing the registry (the
    server's [-j N] worker domains depend on this). *)

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)

(* Geometric buckets, [buckets_per_decade] per power of ten, spanning
   10^lo_decade .. 10^hi_decade; values outside clamp into the first or
   last bucket.  The defaults cover 1ns..10^15ns (~11 days) at a factor
   ~1.78 between bucket bounds — percentile estimates are within one
   bucket ratio of exact, which is what a p99 needs. *)
let lo_decade = 0

let hi_decade = 15

type histogram = {
  bpd : int;  (* buckets per decade *)
  buckets : int array;
  h_lock : Mutex.t;  (* guards every mutable field below *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let make_histogram bpd =
  if bpd < 1 then invalid_arg "Metrics.histogram: buckets_per_decade must be >= 1";
  {
    bpd;
    buckets = Array.make (bpd * (hi_decade - lo_decade)) 0;
    h_lock = Mutex.create ();
    h_count = 0;
    h_sum = 0.;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
  }

let hist_locked h f =
  Mutex.lock h.h_lock;
  match f () with
  | v ->
    Mutex.unlock h.h_lock;
    v
  | exception e ->
    Mutex.unlock h.h_lock;
    raise e

let bucket_index h v =
  if v <= 10. ** float_of_int lo_decade then 0
  else
    let i =
      int_of_float
        (Float.floor (float_of_int h.bpd *. (Float.log10 v -. float_of_int lo_decade)))
    in
    min (max i 0) (Array.length h.buckets - 1)

(* The geometric midpoint of bucket [i] — the representative value
   percentile estimation reports. *)
let bucket_mid h i =
  10. ** ((float_of_int i +. 0.5) /. float_of_int h.bpd +. float_of_int lo_decade)

let observe h v =
  hist_locked h @@ fun () ->
  let i = bucket_index h v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = hist_locked h (fun () -> h.h_count)

let hist_sum h = hist_locked h (fun () -> h.h_sum)

let hist_mean h =
  hist_locked h @@ fun () ->
  if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count

(** [percentile h p] — the estimated [p]-th percentile (0 < p <= 100):
    the geometric midpoint of the bucket holding the rank-[p] sample,
    clamped to the observed min/max (so single-valued histograms are
    exact).  Returns [nan] for an empty histogram. *)
let percentile h p =
  hist_locked h @@ fun () ->
  if h.h_count = 0 then Float.nan
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int h.h_count)))
    in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank && !i < Array.length h.buckets do
      seen := !seen + h.buckets.(!i);
      incr i
    done;
    let estimate = bucket_mid h (max 0 (!i - 1)) in
    Float.min h.h_max (Float.max h.h_min estimate)
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)

type counter = int Atomic.t

type gauge = float Atomic.t

type cell = Counter of counter | Gauge of gauge | Histogram of histogram

type key = { name : string; labels : (string * string) list }

type t = {
  r_lock : Mutex.t;  (* guards [cells] and [order] *)
  cells : (key, cell) Hashtbl.t;
  mutable order : key list;  (* registration order, newest first *)
}

let create () = { r_lock = Mutex.create (); cells = Hashtbl.create 32; order = [] }

let reg_locked t f =
  Mutex.lock t.r_lock;
  match f () with
  | v ->
    Mutex.unlock t.r_lock;
    v
  | exception e ->
    Mutex.unlock t.r_lock;
    raise e

(** The process-wide default registry. *)
let default = create ()

let clear t =
  reg_locked t @@ fun () ->
  Hashtbl.reset t.cells;
  t.order <- []

let key ?(labels = []) name =
  { name; labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let intern t k make_cell cast =
  let cell =
    reg_locked t @@ fun () ->
    match Hashtbl.find_opt t.cells k with
    | Some cell -> cell
    | None ->
      let cell = make_cell () in
      Hashtbl.replace t.cells k cell;
      t.order <- k :: t.order;
      cell
  in
  cast cell

let wrong_kind k cell =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered as a %s" k.name
       (kind_name cell))

(** [counter t name] — the counter registered under [name] (+ labels),
    creating it at zero on first use.
    @raise Invalid_argument if the name is taken by another kind. *)
let counter t ?labels name =
  let k = key ?labels name in
  intern t k
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> c | cell -> wrong_kind k cell)

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n)

(* For counters that mirror an externally-accumulated total (the query
   cache keeps its own atomics and is re-reported after every run). *)
let set_counter c n = Atomic.set c n

let counter_value c = Atomic.get c

(** [gauge t name] — the gauge registered under [name] (+ labels). *)
let gauge t ?labels name =
  let k = key ?labels name in
  intern t k
    (fun () -> Gauge (Atomic.make 0.))
    (function Gauge g -> g | cell -> wrong_kind k cell)

let set g v = Atomic.set g v

let gauge_value g = Atomic.get g

(** [histogram t name] — the log-scale histogram registered under
    [name] (+ labels); [buckets_per_decade] (default 4) fixes the
    resolution at creation time. *)
let histogram t ?(buckets_per_decade = 4) ?labels name =
  let k = key ?labels name in
  intern t k
    (fun () -> Histogram (make_histogram buckets_per_decade))
    (function Histogram h -> h | cell -> wrong_kind k cell)

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)

(* Snapshot of the registry in registration order, taken under the
   registry lock so exporters never race a concurrent [intern]. *)
let entries t =
  reg_locked t @@ fun () ->
  List.rev_map (fun k -> (k, Hashtbl.find t.cells k)) t.order

(* The exclusive upper bound of bucket [i] — what a cumulative
   exposition format (Prometheus [le]) reports. *)
let bucket_upper h i =
  10. ** (float_of_int (i + 1) /. float_of_int h.bpd +. float_of_int lo_decade)

type hview = {
  hv_count : int;
  hv_sum : float;
  hv_buckets : (float * int) list;
      (* (upper bound, cumulative count), non-empty buckets only *)
}

type view = V_counter of int | V_gauge of float | V_histogram of hview

let snapshot t =
  List.map
    (fun (k, cell) ->
      let view =
        match cell with
        | Counter c -> V_counter (Atomic.get c)
        | Gauge g -> V_gauge (Atomic.get g)
        | Histogram h ->
          hist_locked h (fun () ->
              let cum = ref 0 and acc = ref [] in
              Array.iteri
                (fun i n ->
                  if n > 0 then begin
                    cum := !cum + n;
                    acc := (bucket_upper h i, !cum) :: !acc
                  end)
                h.buckets;
              V_histogram
                {
                  hv_count = h.h_count;
                  hv_sum = h.h_sum;
                  hv_buckets = List.rev !acc;
                })
      in
      ((k.name, k.labels), view))
    (entries t)

let pp_key ppf k =
  Format.pp_print_string ppf k.name;
  match k.labels with
  | [] -> ()
  | labels ->
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) labels))

(** Aligned-text dump: one metric per line, histograms with
    count/mean/p50/p95/p99. *)
let pp ppf t =
  let entries =
    List.map
      (fun (k, cell) ->
        let label = Format.asprintf "%a" pp_key k in
        let value =
          match cell with
          | Counter c -> string_of_int (Atomic.get c)
          | Gauge g -> Printf.sprintf "%g" (Atomic.get g)
          | Histogram h ->
            Printf.sprintf "count=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f"
              (hist_count h) (hist_mean h) (percentile h 50.)
              (percentile h 95.) (percentile h 99.)
        in
        (label, value))
      (entries t)
  in
  let width = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries in
  Format.pp_print_list ~pp_sep:Format.pp_print_cut
    (fun ppf (l, v) -> Format.fprintf ppf "%-*s  %s" width l v)
    ppf entries

let to_json t =
  Json.List
    (List.map
       (fun (k, cell) ->
         Json.Obj
           ([ ("name", Json.Str k.name) ]
           @ (match k.labels with
             | [] -> []
             | labels ->
               [
                 ( "labels",
                   Json.Obj (List.map (fun (a, b) -> (a, Json.Str b)) labels) );
               ])
           @ [ ("kind", Json.Str (kind_name cell)) ]
           @
           match cell with
           | Counter c -> [ ("value", Json.Int (Atomic.get c)) ]
           | Gauge g -> [ ("value", Json.Float (Atomic.get g)) ]
           | Histogram h ->
             let count, sum, min_v, max_v =
               hist_locked h (fun () -> (h.h_count, h.h_sum, h.h_min, h.h_max))
             in
             [
               ("count", Json.Int count);
               ("sum", Json.Float sum);
               ("min", Json.Float (if count = 0 then 0. else min_v));
               ("max", Json.Float (if count = 0 then 0. else max_v));
               ("mean", Json.Float (hist_mean h));
               ("p50", Json.Float (percentile h 50.));
               ("p95", Json.Float (percentile h 95.));
               ("p99", Json.Float (percentile h 99.));
             ]))
       (entries t))
