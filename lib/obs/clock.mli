(** The nanosecond clock behind spans, histograms and EXPLAIN ANALYZE.
    Monotone non-decreasing; the source is pluggable so harnesses with a
    real monotonic clock (bechamel's, say) can install it. *)

(** [now_ns ()] — current time in nanoseconds, monotone non-decreasing. *)
val now_ns : unit -> int64

(** [elapsed_ns since] — nanoseconds from [since] to now. *)
val elapsed_ns : int64 -> int64

(** [set_source f] replaces the clock source ([f] returns nanoseconds).
    Monotonicity is still enforced by clamping. *)
val set_source : (unit -> int64) -> unit

(** Human-readable duration: picks ns/us/ms/s by magnitude. *)
val pp_duration : Format.formatter -> int64 -> unit
