(** Attribution of a request's time to layers, from the span trees the
    program already returns ([Blas.run ?tracer], the wire [TRACE]
    envelope, [TRACE GET] on shard ports).

    A span's self time is its duration minus its children's.  Three
    span kinds are filed post hoc beside the work they belong to, not
    inside it: [pager-io] (page reads during the query run) and [wal-io]
    (WAL fsyncs during the edit) lie inside a sibling ([execute],
    [apply]); [queue-wait] lies before its parent [request] began, in
    the time the caller sees outside the request (the wire).  Each is
    kept out of its parent's child sum, charged to its own layer and
    taken out of the layer whose interval holds it.  The router
    scatters a query's legs in parallel, so only the longest leg blocks
    the reply: a router request's self time subtracts only that one. *)

module J = Blas_obs.Json

(** Layer of a span name, by the module that opens it. *)
let layer_of = function
  | "request" -> "server.request"
  | "queue-wait" -> "server.queue_wait"
  | "lock-wait" -> "server.lock_wait"
  | "cache-probe" -> "cache.probe"
  | "plan-choice" -> "optimizer.choose"
  | "translate" | "compile" | "decompose" | "build-streams" -> "core.translate"
  | "query" -> "core.query"
  | "execute" | "materialize" -> "exec.execute"
  | "pager-io" -> "pager.read"
  | "apply" -> "update.apply"
  | "wal-io" -> "wal.fsync"
  | name when String.starts_with ~prefix:"fanout-" name -> "router.leg"
  | _ -> "other"

(* Where a layer's time lies when its span is not nested in its
   parent: the layer that holds it ([None]: nested). *)
let host_of ~outside = function
  | "pager.read" -> Some "exec.execute"
  | "wal.fsync" -> Some "update.apply"
  | "server.queue_wait" -> Some outside
  | _ -> None

type span = {
  name : string;
  dur_ns : float;
  attrs : (string * string) list;
  kids : span list;
}

let rec of_json j =
  let str k = Option.bind (Jsonp.member k j) Jsonp.to_string in
  {
    name = Option.value ~default:"" (str "name");
    dur_ns =
      Option.value ~default:0.
        (Option.bind (Jsonp.member "duration_ns" j) Jsonp.to_float);
    attrs =
      (match Jsonp.member "attrs" j with
      | Some (J.Obj kv) ->
        List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (Jsonp.to_string v)) kv
      | _ -> []);
    kids =
      List.map of_json
        (Option.value ~default:[] (Option.map Jsonp.to_list (Jsonp.member "children" j)));
  }

(** The root spans of a serialized trace (the [trace] field of an
    envelope, or [Trace.to_json]). *)
let roots_of_json j = List.map of_json (Jsonp.to_list j)

(** Accumulates (layer, ns) self times. *)
type acc = (string, float) Hashtbl.t

let charge (acc : acc) layer ns =
  Hashtbl.replace acc layer (ns +. Option.value ~default:0. (Hashtbl.find_opt acc layer))

let rec walk ~rename ~outside (acc : acc) moves s =
  let nested = List.filter (fun k -> host_of ~outside (layer_of k.name) = None) s.kids in
  let legs, others =
    List.partition (fun k -> layer_of k.name = "router.leg") nested
  in
  let critical = List.fold_left (fun m k -> Float.max m k.dur_ns) 0. legs in
  let child_sum = List.fold_left (fun a k -> a +. k.dur_ns) critical others in
  charge acc (rename (layer_of s.name)) (Float.max 0. (s.dur_ns -. child_sum));
  List.iter
    (fun k ->
      match host_of ~outside (layer_of k.name) with
      | Some host ->
        charge acc (rename (layer_of k.name)) k.dur_ns;
        moves := (host, k.dur_ns) :: !moves
      | None -> if layer_of k.name <> "router.leg" then walk ~rename ~outside acc moves k)
    s.kids

(** [attribute ?rename ?outside ?extra roots] — self time per layer over
    [roots] plus the [extra] charges measured outside any span (the
    residual client time, router leg wire time, pager time from I/O
    totals).  Router legs are left
    to the caller, which replaces the critical one by the shard's own
    trace.  Time of spans that are not nested in their parent moves out
    of the layer holding it ([outside] for queue waits, default
    ["residual"]), floored at zero. *)
let attribute ?(rename = fun l -> l) ?(outside = "residual") ?(extra = []) roots =
  let acc : acc = Hashtbl.create 16 in
  let moves = ref [] in
  List.iter (walk ~rename ~outside acc moves) roots;
  List.iter
    (fun (layer, ns) ->
      charge acc layer ns;
      Option.iter (fun host -> moves := (host, ns) :: !moves) (host_of ~outside layer))
    extra;
  List.iter
    (fun (host, ns) ->
      let t = Option.value ~default:0. (Hashtbl.find_opt acc host) in
      Hashtbl.replace acc host (Float.max 0. (t -. ns)))
    !moves;
  acc

(** The longest router leg of a router request tree, with its index
    among the legs (the chunk index of its [TRACE BG] id) and its shard. *)
let critical_leg root =
  let legs =
    List.filter (fun k -> layer_of k.name = "router.leg") root.kids
  in
  List.fold_left
    (fun (best, i) k ->
      let best =
        match best with
        | Some (_, b) when b.dur_ns >= k.dur_ns -> best
        | _ -> Some (i, k)
      in
      (best, i + 1))
    (None, 0) legs
  |> fst
  |> Option.map (fun (i, k) ->
         (i, int_of_string (List.assoc "shard" k.attrs), k.dur_ns, List.length legs))
