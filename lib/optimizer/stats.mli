(** Sampled document statistics for the cost-based optimizer.

    Cardinalities have one home: the storage's counted DataGuide
    ({!Blas_xml.Dataguide}), which holds the exact node count of every
    source path — each P-interval's population — and stays exact under
    every edit.  Statistics keep no guide: the planner prices on the
    live one, so a read-write storage and a reopen of its file price
    alike.  They hold what the guide does not know: a deterministic
    per-tag reservoir sample of SD text values, from which
    value-predicate selectivities are estimated.  The pick itself
    therefore never probes the data.

    Statistics are immutable after collection except for the staleness
    counter: the update subsystem reports how many nodes each edit
    touched, and once the stale fraction crosses {!stale_threshold} the
    owner is expected to resample (re-collect) and bump its epoch. *)

type t

(** The process-wide default reservoir seed ([--stats-seed]); fixed so
    stats-dependent tests and benches are reproducible by default. *)
val default_seed : unit -> int

val set_default_seed : int -> unit

(** [collect ?seed ?epoch ?sample_size iter] — one pass over the
    nodes: [iter f] calls [f tag text] on every element node that has
    text, in document order, straight from wherever the nodes live.
    [seed] defaults to {!default_seed}; [sample_size] is the per-tag
    reservoir capacity (default 64). *)
val collect :
  ?seed:int ->
  ?epoch:int ->
  ?sample_size:int ->
  ((string -> string -> unit) -> unit) ->
  t

val seed : t -> int

(** Statistics epoch: bumped by the owner on every resample, so cached
    plans keyed by it die when the statistics change. *)
val epoch : t -> int

val sample_size : t -> int

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

(** Edits over the nodes of [guide], the storage's live guide. *)
val stale_fraction : t -> guide:Blas_xml.Dataguide.t -> float

val is_stale : t -> guide:Blas_xml.Dataguide.t -> bool

(* Serialization and reporting *)

(** Same blob ({!to_string}). *)
val equal : t -> t -> bool

(** The statistics as one blob: the header (seed, epoch, sample size,
    edit count) followed by the reservoirs.  The guide is not in it — a
    database catalog stores it beside.  A catalog older than v7 holds
    this blob; v7 stores the two parts apart ({!add_header},
    {!reservoirs}). *)
val to_string : t -> string

(** [of_string blob] — the statistics of [blob].
    @raise Invalid_argument on a malformed or unsupported blob. *)
val of_string : string -> t

(** Appends the header: seed, epoch, sample size and edit count, the
    part that moves with every commit. *)
val add_header : Buffer.t -> t -> unit

(** The reservoirs' encoding, made once by {!collect}, {!of_string} or
    {!of_parts}: the same string until a resample builds new
    statistics, so a catalog writer can tell by physical equality that
    it has not changed. *)
val reservoirs : t -> string

(** [of_parts ~header ~reservoirs] — the statistics whose
    {!add_header} and {!reservoirs} are these.
    @raise Invalid_argument on a malformed part. *)
val of_parts : header:string -> reservoirs:string -> t

(** The statistics with [guide]'s paths and counts, the storage's live
    guide. *)
val pp : guide:Blas_xml.Dataguide.t -> Format.formatter -> t -> unit

val to_json : guide:Blas_xml.Dataguide.t -> t -> Blas_obs.Json.t
