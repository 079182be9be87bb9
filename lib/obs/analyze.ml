(** EXPLAIN ANALYZE: an annotated operator tree.

    Engines produce one {!node} per executed plan operator (or twig
    stream) carrying {e actual} row counts, elapsed time, and the I/O
    charged while the operator ran.  [self] holds the operator's own
    charges (children excluded), so summing [self] over a whole tree
    reconciles exactly with the run's global counters; [elapsed_ns] is
    cumulative (children included), like PostgreSQL's actual time.

    The {!Collector} builds such trees from recursive evaluators: wrap
    every recursive call in {!Collector.wrap} and the nesting of the
    calls becomes the nesting of the tree, with per-node deltas of an
    engine-supplied stats snapshot. *)

type stats = {
  read : int;  (** base-table tuples / stream elements fetched *)
  seeks : int;  (** page-directory descents *)
  page_requests : int;  (** buffer-pool page requests *)
  page_reads : int;  (** buffer-pool misses — pages read from the store *)
}

let zero_stats = { read = 0; seeks = 0; page_requests = 0; page_reads = 0 }

let add_stats a b =
  {
    read = a.read + b.read;
    seeks = a.seeks + b.seeks;
    page_requests = a.page_requests + b.page_requests;
    page_reads = a.page_reads + b.page_reads;
  }

let sub_stats a b =
  {
    read = a.read - b.read;
    seeks = a.seeks - b.seeks;
    page_requests = a.page_requests - b.page_requests;
    page_reads = a.page_reads - b.page_reads;
  }

type node = {
  label : string;  (** operator description, one line *)
  kind : string;  (** e.g. "access", "djoin", "stream", "phase", "query" *)
  rows : int;  (** actual output rows / entries *)
  self : stats;  (** charges by this operator itself, children excluded *)
  elapsed_ns : int64;  (** cumulative elapsed, children included *)
  children : node list;
}

let make ~label ~kind ~rows ?(self = zero_stats) ?(elapsed_ns = 0L) children =
  { label; kind; rows; self; elapsed_ns; children }

let rec fold f acc node = List.fold_left (fold f) (f acc node) node.children

(** Sum of [self] over the whole tree — reconciles with the run's
    global counters. *)
let total_stats root = fold (fun acc n -> add_stats acc n.self) zero_stats root

let total_read root = (total_stats root).read

let total_rows_of_kind kind root =
  fold (fun acc n -> if String.equal n.kind kind then acc + n.rows else acc) 0 root

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let pp_annotations ppf n =
  Format.fprintf ppf "(rows=%d" n.rows;
  if n.self.read > 0 then Format.fprintf ppf " read=%d" n.self.read;
  if n.self.seeks > 0 then Format.fprintf ppf " seeks=%d" n.self.seeks;
  if n.self.page_requests > 0 then
    Format.fprintf ppf " pages=%d hit/%d miss"
      (n.self.page_requests - n.self.page_reads)
      n.self.page_reads;
  Format.fprintf ppf " time=%a)" Clock.pp_duration n.elapsed_ns

(** Annotated plan tree in box-drawing style:
    {v
    query //a/b  (rows=12 time=1.02ms)
    ├─ translate  (rows=1 time=10.1us)
    └─ execute ...
    v} *)
let pp ppf root =
  let rec go prefix child_prefix node =
    Format.fprintf ppf "%s%s  %a@," prefix node.label pp_annotations node;
    let rec kids = function
      | [] -> ()
      | [ last ] -> go (child_prefix ^ "└─ ") (child_prefix ^ "   ") last
      | k :: rest ->
        go (child_prefix ^ "├─ ") (child_prefix ^ "│  ") k;
        kids rest
    in
    kids node.children
  in
  Format.pp_open_vbox ppf 0;
  go "" "" root;
  Format.pp_close_box ppf ()

let to_string root = Format.asprintf "%a" pp root

let rec to_json n =
  Json.Obj
    ([
       ("label", Json.Str n.label);
       ("kind", Json.Str n.kind);
       ("rows", Json.Int n.rows);
       ("read", Json.Int n.self.read);
       ("seeks", Json.Int n.self.seeks);
       ("page_requests", Json.Int n.self.page_requests);
       ("page_reads", Json.Int n.self.page_reads);
       ("elapsed_ns", Json.Int (Int64.to_int n.elapsed_ns));
     ]
    @
    match n.children with
    | [] -> []
    | kids -> [ ("children", Json.List (List.map to_json kids)) ])

(* ------------------------------------------------------------------ *)
(* Collector                                                          *)

module Collector = struct
  type builder = {
    snapshot : unit -> stats;
    (* Stack of frames; each frame accumulates the finished children of
       the node being evaluated, paired with their cumulative stats so
       the parent can compute its self charges.  The bottom frame holds
       completed roots. *)
    mutable frames : (node * stats) list list;
  }

  type t = builder

  let create ~snapshot = { snapshot; frames = [ [] ] }

  let wrap t ~kind ~label ~rows f =
    t.frames <- [] :: t.frames;
    let s0 = t.snapshot () in
    let t0 = Clock.now_ns () in
    let v = f () in
    let elapsed_ns = Clock.elapsed_ns t0 in
    let cumulative = sub_stats (t.snapshot ()) s0 in
    let children =
      match t.frames with
      | frame :: rest ->
        t.frames <- rest;
        List.rev frame
      | [] -> assert false
    in
    let child_cum =
      List.fold_left (fun acc (_, s) -> add_stats acc s) zero_stats children
    in
    let node =
      {
        label;
        kind;
        rows = rows v;
        self = sub_stats cumulative child_cum;
        elapsed_ns;
        children = List.map fst children;
      }
    in
    (match t.frames with
    | frame :: rest -> t.frames <- ((node, cumulative) :: frame) :: rest
    | [] -> assert false);
    v

  (** [attach t node] adds an externally built node as a child of the
      frame currently open (its stats count as cumulative). *)
  let attach t node =
    match t.frames with
    | frame :: rest -> t.frames <- ((node, total_stats node) :: frame) :: rest
    | [] -> assert false

  (** Completed top-level nodes, oldest first. *)
  let roots t =
    match t.frames with
    | [ frame ] -> List.rev_map fst frame
    | _ -> invalid_arg "Analyze.Collector.roots: open frames remain"
end
