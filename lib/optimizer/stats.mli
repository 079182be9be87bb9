(** Sampled document statistics for the cost-based optimizer.

    Cardinalities have one home: the counted DataGuide
    ({!Blas_xml.Dataguide}), which holds the exact node count of every
    source path — each P-interval's population — and stays exact under
    every edit.  Statistics keep the guide they were collected against
    (the guide is persistent, so this snapshot costs nothing) and add
    what the guide does not know: a deterministic per-tag reservoir
    sample of SD text values, from which value-predicate selectivities
    are estimated.  The pick itself therefore never probes the data.

    Statistics are immutable after collection except for the staleness
    counter: the update subsystem reports how many nodes each edit
    touched, and once the stale fraction crosses {!stale_threshold} the
    owner is expected to resample (re-collect) and bump its epoch. *)

type t

(** What {!collect} reads per element node. *)
type node_view = { nv_tag : string; nv_data : string option }

(** The process-wide default reservoir seed ([--stats-seed]); fixed so
    stats-dependent tests and benches are reproducible by default. *)
val default_seed : unit -> int

val set_default_seed : int -> unit

(** [collect ?seed ?epoch ?sample_size ~guide nodes] — one pass over
    the nodes counted in [guide].  [seed] defaults to {!default_seed};
    [sample_size] is the per-tag reservoir capacity (default 64). *)
val collect :
  ?seed:int ->
  ?epoch:int ->
  ?sample_size:int ->
  guide:Blas_xml.Dataguide.t ->
  node_view list ->
  t

val seed : t -> int

(** Statistics epoch: bumped by the owner on every resample, so cached
    plans keyed by it die when the statistics change. *)
val epoch : t -> int

(** The guide's total count: every element node. *)
val node_count : t -> int

val sample_size : t -> int

(** The counted guide the statistics were collected against (or
    installed with); the planner prices suffix paths with
    {!Blas_xml.Dataguide.suffix_count} on it. *)
val guide : t -> Blas_xml.Dataguide.t

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

(** Same blob and same guide paths and counts. *)
val equal : t -> t -> bool

(** The blob: seed, epoch, sample size, staleness and reservoirs.  The
    guide is not in it — a database catalog stores it beside. *)
val to_string : t -> string

(** [of_string ~guide blob] — the statistics of [blob] over [guide].
    @raise Invalid_argument on a malformed or unsupported blob. *)
val of_string : guide:Blas_xml.Dataguide.t -> string -> t

val pp : Format.formatter -> t -> unit

val to_json : t -> Blas_obs.Json.t
