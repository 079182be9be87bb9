(** The nanosecond clock behind spans, histograms and EXPLAIN ANALYZE.

    The default source derives nanoseconds from [Unix.gettimeofday] and
    clamps it to be monotone (a wall-clock step backwards never produces
    a negative duration).  Harnesses with access to a real monotonic
    clock — the benchmark suite links bechamel's — install it with
    {!set_source} so every observability timestamp shares one clock. *)

(* The latest time handed out, shared by every domain: an atomic
   maximum, so concurrent callers never see the clock step back. *)
let last = Atomic.make 0L

let default_source () =
  Int64.of_float (Unix.gettimeofday () *. 1e9)

let source = ref default_source

let set_source f = source := f

(** [now_ns ()] — current time in nanoseconds, monotone non-decreasing. *)
let rec now_ns () =
  let t = !source () in
  let l = Atomic.get last in
  if Int64.compare t l <= 0 then l
  else if Atomic.compare_and_set last l t then t
  else now_ns ()

(** [elapsed_ns since] — nanoseconds from [since] to now (>= 0). *)
let elapsed_ns since = Int64.sub (now_ns ()) since

(** Human-readable duration: picks ns/us/ms/s by magnitude. *)
let pp_duration ppf ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Format.fprintf ppf "%.0fns" f
  else if f < 1e6 then Format.fprintf ppf "%.1fus" (f /. 1e3)
  else if f < 1e9 then Format.fprintf ppf "%.2fms" (f /. 1e6)
  else Format.fprintf ppf "%.3fs" (f /. 1e9)
