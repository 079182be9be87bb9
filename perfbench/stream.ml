(** The seeded op stream.

    A stream is generated from the seed alone, before any setup, as
    abstract ops: reads name a document and an XPath; edits name a
    document and a {e pick} (a position along the current candidate
    nodes) instead of a label, because labels move as edits relabel.  The
    shadow replay resolves each edit against the shadow's state at that
    point of the stream ({!resolve}), which the live replay reaches
    too, so the resolved edits never fail there.

    Every 8th op (index mod 8 = 7) is an edit, so a stream of [n] ops
    holds exactly [n / 8] edits whatever the seed. *)

module Proto = Blas_server.Proto

(* A pick is a position in [0, 1) along the document's candidate nodes. *)
type edit_spec =
  | Retext of { pick : float; value : string }
  | Insert of { pick : float; marker : string }
  | Delete of { marker : string }

type op =
  | Read of { doc : string; xpath : string }
  | Edit of { doc : string; spec : edit_spec }

let is_edit_slot i = i mod 8 = 7

(** Constants drawn per value-predicate template. *)
let constants_per_template = 8

(** The fixed read set of [local-cold]: Figure 10 plus the XMark
    skeletons on auction. *)
let plain_reads (docs : Docs.t list) =
  List.concat_map
    (fun (d : Docs.t) ->
      List.map (fun xpath -> (d.Docs.name, xpath)) (d.Docs.fig10 @ d.Docs.xmark))
    docs

(* Round-robin merge of the per-document lists. *)
let rec interleave = function
  | [] -> []
  | lists ->
    let heads = List.filter_map (function x :: _ -> Some x | [] -> None) lists in
    let tails = List.filter (( <> ) []) (List.map (function _ :: t -> t | [] -> []) lists) in
    heads @ interleave tails

(** The read set of [routed-mixed], in popularity rank order:
    the plain reads, then value-predicate queries whose constants are
    drawn from the documents with [rng], the documents interleaved.
    The order is fixed; only the constants depend on the seed, so every
    seed samples the same distribution over the same hot queries. *)
let mixed_reads rng (docs : Docs.t list) =
  let per_doc f = interleave (List.map f docs) in
  per_doc (fun (d : Docs.t) ->
      List.map (fun xpath -> (d.Docs.name, xpath)) (d.Docs.fig10 @ d.Docs.xmark))
  @ per_doc (fun (d : Docs.t) ->
        List.init constants_per_template (fun _ ->
            let v = d.Docs.values.(Random.State.int rng (Array.length d.Docs.values)) in
            (d.Docs.name, d.Docs.value_query v)))

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(** [draws rng weights n] — [n] indices into [weights], each drawn as
    often as its share of the total (largest remainder), in a seeded
    order.  Every seed gets the same mix, so runs of different seeds
    differ in order and targets, not in how much of each work they do. *)
let draws rng weights n =
  let total = Array.fold_left ( +. ) 0. weights in
  let exact = Array.map (fun w -> w /. total *. float_of_int n) weights in
  let count = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let frac i = exact.(i) -. float_of_int count.(i) in
  let order = Array.init (Array.length weights) Fun.id in
  Array.stable_sort (fun a b -> compare (frac b) (frac a)) order;
  for k = 0 to n - Array.fold_left ( + ) 0 count - 1 do
    count.(order.(k)) <- count.(order.(k)) + 1
  done;
  let out = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) count)) in
  shuffle rng out;
  out

(* The golden-ratio sequence: successive picks spread evenly over [0, 1)
   from a seeded start, so a document's edits land all over it for
   every seed instead of clustering by chance. *)
let spread rng =
  let u = ref (Random.State.float rng 1.) in
  fun () ->
    u := Float.rem (!u +. 0.6180339887498949) 1.;
    !u

(** [generate ~seed ~ops ~skew docs] — the read set (plain reads, equally
    often, when [skew] is false; else mixed reads in Zipf(1) proportion
    over their rank order) and [ops] ops over it.  Returns the distinct
    reads too, for warm-up and the replica check. *)
let generate ~seed ~ops ~skew (docs : Docs.t list) =
  let rng = Random.State.make [| seed; 0x1ed9e |] in
  let reads =
    Array.of_list (if skew then mixed_reads rng docs else plain_reads docs)
  in
  let weights =
    Array.mapi (fun k _ -> if skew then 1. /. float_of_int (k + 1) else 1.) reads
  in
  let nedits = ops / 8 in
  let read_order = draws rng weights (ops - nedits) in
  (* Edits go round the documents, and each document's edits round
     the cycle RETEXT, INSERT, RETEXT, INSERT, DELETE, DELETE, so every
     seed makes the same mix; the seed places the targets, draws the
     texts and picks which inserted subtree a DELETE removes. *)
  let docs_arr = Array.of_list docs in
  let ndocs = Array.length docs_arr in
  let retext_at = Array.init ndocs (fun _ -> spread rng) in
  let insert_at = Array.init ndocs (fun _ -> spread rng) in
  let live = Array.make ndocs [] in
  let next_marker = ref 0 in
  let edit j =
    let k = j mod ndocs in
    let d = docs_arr.(k) in
    let spec =
      match (j / ndocs) mod 6 with
      | 1 | 3 ->
        incr next_marker;
        let m = Docs.marker_prefix ^ string_of_int !next_marker in
        live.(k) <- m :: live.(k);
        Insert { pick = insert_at.(k) (); marker = m }
      | 4 | 5 ->
        let m = List.nth live.(k) (Random.State.int rng (List.length live.(k))) in
        live.(k) <- List.filter (( <> ) m) live.(k);
        Delete { marker = m }
      | _ ->
        Retext
          {
            pick = retext_at.(k) ();
            value = d.Docs.values.(Random.State.int rng (Array.length d.Docs.values));
          }
    in
    Edit { doc = d.Docs.name; spec }
  in
  let nread = ref 0 in
  let stream =
    Array.init ops (fun i ->
        if is_edit_slot i then edit (i / 8)
        else begin
          let doc, xpath = reads.(read_order.(!nread)) in
          incr nread;
          Read { doc; xpath }
        end)
  in
  (stream, List.sort_uniq compare (Array.to_list reads))

(** [with_part_reads ~seed stream] — [routed-mixed]'s stream: the
    mixed stream with one read of the range-partitioned document after
    every 8th op, the partitioned queries equally often, drawn from an
    independent generator so the other ops stay exactly those that
    {!generate} made for the seed. *)
let with_part_reads ~seed stream =
  let rng = Random.State.make [| seed; 0x9a27 |] in
  let qs = Array.of_list Docs.part_queries in
  let order = draws rng (Array.map (fun _ -> 1.) qs) (Array.length stream / 8) in
  List.concat
    (List.mapi
       (fun i op ->
         if i mod 8 = 7 then [ op; Read { doc = Docs.part_name; xpath = qs.(order.(i / 8)) } ]
         else [ op ])
       (Array.to_list stream))
  |> Array.of_list

(** [resolve d storage spec] — the concrete edit for [spec] on the
    current state of [storage] (a shadow copy of document [d]). *)
let resolve (d : Docs.t) storage spec : Proto.edit =
  let doc = Blas.Storage.doc storage in
  let nth_of pred pick =
    let cands = Array.of_list (List.filter pred doc.Blas_xpath.Doc.all) in
    if Array.length cands = 0 then
      failwith (Printf.sprintf "stream: no edit target in %s" d.Docs.name);
    cands.(min (Array.length cands - 1) (int_of_float (pick *. float_of_int (Array.length cands))))
  in
  match spec with
  | Retext { pick; value } ->
    let n = nth_of d.Docs.retext_target pick in
    Proto.Retext { start = n.Blas_xpath.Doc.start; data = Some value }
  | Insert { pick; marker } ->
    let p = nth_of d.Docs.insert_parent pick in
    Proto.Insert
      {
        parent = p.Blas_xpath.Doc.start;
        pos = List.length p.Blas_xpath.Doc.children;
        xml = d.Docs.insert_xml marker;
      }
  | Delete { marker } -> (
    match List.find_opt (d.Docs.inserted marker) doc.Blas_xpath.Doc.all with
    | Some n -> Proto.Delete { start = n.Blas_xpath.Doc.start }
    | None -> failwith (Printf.sprintf "stream: lost marker %s" marker))

(** Apply a resolved edit in process (the [local-cold] write path and
    its shadow). *)
let apply storage (e : Proto.edit) =
  match e with
  | Proto.Insert { parent; pos; xml } ->
    Blas.Update.insert_subtree storage ~parent ~pos (Blas_xml.Dom.parse xml)
  | Proto.Delete { start } -> Blas.Update.delete_subtree storage ~start
  | Proto.Retext { start; data } -> Blas.Update.replace_text storage ~start data

(** The in-process edit check string: the report and the remaining gap
    budget, as the server renders an UPDATE reply. *)
let render_update storage report =
  let free, span = Blas.Update.gap_budget storage in
  Format.asprintf "%a@\ngap budget: %d of %d positions free"
    Blas.Update.pp_report report free span
