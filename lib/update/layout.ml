(** The two relations of the experimental setup (Section 5.2.1), defined
    once: SP(plabel, start, end, level, data) clustered by {plabel,
    start} for BLAS and SD(tag, start, end, level, data) clustered by
    {tag, start} for the D-labeling baseline.  The clustering is the
    index: each table's page directory serves the selections on its
    leading column, and there are no secondary indexes.  The index
    build, the database bulk load and the relabeling of an old catalog
    all load tables through {!load}; the index build hands it rows
    already in cluster order ({!clustered_rows}), so nothing sorts
    them. *)

module Doc = Blas_xpath.Doc
module Rel = Blas_rel

type spec = {
  name : string;
  schema : Rel.Schema.t;
  cluster_key : string list;
}

let spec name lead =
  {
    name;
    schema = Rel.Schema.of_list [ lead; "start"; "end"; "level"; "data" ];
    cluster_key = [ lead; "start" ];
  }

let sp = spec "sp" "plabel"

let sd = spec "sd" "tag"

let data_value = function None -> Rel.Value.Null | Some d -> Rel.Value.Str d

let row lead ~start ~fin ~level ~data =
  Rel.Tuple.of_list
    [ lead; Rel.Value.Int start; Rel.Value.Int fin; Rel.Value.Int level; data_value data ]

(** The P-label of a source path (root tag first): its label in [guide]
    (Definition 3.3). *)
let plabel guide path =
  match Blas_xml.Dataguide.label guide path with
  | Some l -> l
  | None -> invalid_arg "Layout.plabel: source path missing from the guide"

(** A source path's tag: its last. *)
let tag path = List.nth path (List.length path - 1)

(** The SP row of a node on [path], its P-label from [guide]. *)
let sp_row guide ~path = row (Rel.Value.Int (plabel guide path))

(** The SD row of a node tagged [tag]. *)
let sd_row ~tag = row (Rel.Value.Str tag)

(** [load ?fill store spec rows] bulk-loads one relation into [store]. *)
let load ?fill store spec rows =
  Rel.Table.load ?fill store ~name:spec.name ~schema:spec.schema
    ~cluster_key:spec.cluster_key rows

(** [of_layout store spec ~dir] reopens one relation from its page
    directory. *)
let of_layout store spec ~dir =
  Rel.Table.of_layout store ~name:spec.name ~schema:spec.schema
    ~cluster_key:spec.cluster_key ~dir

(* The rows of [nodes] (in start order) grouped by their leading
   value [key], groups in key order, each in start order: the clustered
   order of a table keyed (lead, start), by one stable bucket pass
   instead of a comparison sort over the rows.  A group's rows share
   one copy of their leading value. *)
let clustered ~key row nodes =
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun (n : Doc.node) ->
      let k = key n in
      let add lead rows =
        rows := row lead ~start:n.start ~fin:n.fin ~level:n.level ~data:n.data :: !rows
      in
      match Hashtbl.find_opt buckets k with
      | Some (lead, rows) -> add lead rows
      | None ->
        let rows = ref [] in
        add k rows;
        Hashtbl.add buckets k (k, rows))
    nodes;
  Hashtbl.fold (fun _ group acc -> group :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> Rel.Value.compare b a)
  |> List.fold_left (fun acc (_, rows) -> List.rev_append !rows acc) []

(** [doc]'s SP and SD rows, each already in its cluster order:
    bucketed by P-label (from the document's guide) and by tag over the
    nodes in start order. *)
let clustered_rows (doc : Doc.t) =
  ( clustered
      ~key:(fun n -> Rel.Value.Int (plabel doc.guide n.source_path))
      row doc.all,
    clustered ~key:(fun n -> Rel.Value.Str n.tag) row doc.all )

(** [tables store doc] bulk-loads [doc]'s SP and SD into [store]; the
    rows reach {!load} clustered ({!clustered_rows}), so nothing sorts
    them. *)
let tables store doc =
  let sp_rows, sd_rows = clustered_rows doc in
  (load store sp sp_rows, load store sd sd_rows)
