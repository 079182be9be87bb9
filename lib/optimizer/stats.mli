(** Sampled document statistics for the cost-based optimizer.

    One pass over the labeled nodes at index time produces everything
    the planner prices plans with, so the pick itself never probes the
    data: exact per-tag and per-source-path cardinalities (the P-interval
    populations — DataGuide path sets are small, so exact counts are
    cheaper than estimating them), log-scale histograms of P-interval
    widths and D-range fan-outs (data-shape fingerprints), and a
    deterministic per-tag reservoir sample of SD text values from which
    value-predicate selectivities are estimated.

    Statistics are immutable after collection except for the staleness
    counter: the update subsystem reports how many nodes each edit
    touched, and once the stale fraction crosses {!stale_threshold} the
    owner is expected to resample (re-collect) and bump its epoch. *)

type t

(** What {!collect} reads per element node.  [nv_children] is the
    element-child count (the D-range fan-out). *)
type node_view = {
  nv_tag : string;
  nv_path : string list;  (** source path, root tag first *)
  nv_data : string option;
  nv_children : int;
}

(** The process-wide default reservoir seed ([--stats-seed]); fixed so
    stats-dependent tests and benches are reproducible by default. *)
val default_seed : unit -> int

val set_default_seed : int -> unit

(** [collect ?seed ?epoch ?sample_size nodes] — one-pass collection.
    [seed] defaults to {!default_seed}; [sample_size] is the per-tag
    reservoir capacity (default 64). *)
val collect : ?seed:int -> ?epoch:int -> ?sample_size:int -> node_view list -> t

val seed : t -> int

(** Statistics epoch: bumped by the owner on every resample, so cached
    plans keyed by it die when the statistics change. *)
val epoch : t -> int

val node_count : t -> int

val sample_size : t -> int

(* Cardinalities *)

val tag_cards : t -> (string * int) list

val tag_card : t -> string -> int

(** Per source path (root tag first), sorted; the width of each
    populated P-interval. *)
val path_cards : t -> (string list * int) list

(** [suffix_card t ~absolute ~tags] — nodes matched by a suffix path:
    the sum over source paths that end in [tags] ([absolute] requires
    equality) of their cardinalities.  Zero for unknown paths. *)
val suffix_card : t -> absolute:bool -> tags:string list -> int

(* Histograms: [(bucket_floor, count)] with power-of-two buckets,
   empty buckets omitted.  Bucket floor 0 counts the zero values. *)

val width_hist : t -> (int * int) list

val fanout_hist : t -> (int * int) list

(* Value-predicate selectivity *)

(** [selectivity t ~tag c] — estimated fraction of [tag] nodes whose
    text satisfies [c], from the tag's reservoir sample (Laplace
    smoothed, clamped to (0, 1]).  Tags with no sampled text estimate
    1.0 for [`Differs] and a small floor for [`Equals]. *)
val selectivity :
  t -> tag:string -> [ `Equals of string | `Differs of string ] -> float

(** The sampled values for one tag (at most [sample_size], order is
    reservoir order) and how many values the reservoir saw in total. *)
val sample : t -> tag:string -> string list

val sample_seen : t -> tag:string -> int

val sampled_tags : t -> string list

(* Staleness *)

(** Stale fraction at which the owner should resample. *)
val stale_threshold : float

(** [note_edits t n] — an edit touched [n] nodes. *)
val note_edits : t -> int -> unit

val edits : t -> int

val stale_fraction : t -> float

val is_stale : t -> bool

(* Serialization and reporting *)

val equal : t -> t -> bool

val to_string : t -> string

(** @raise Invalid_argument on a malformed or unsupported blob. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

val to_json : t -> Blas_obs.Json.t
