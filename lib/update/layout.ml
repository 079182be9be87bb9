(** The two relations of the experimental setup (Section 5.2.1), defined
    once: SP(plabel, start, end, level, data) clustered by {plabel,
    start} for BLAS and SD(tag, start, end, level, data) clustered by
    {tag, start} for the D-labeling baseline.  The clustering is the
    index: each table's page directory serves the selections on its
    leading column, and there are no secondary indexes.  The index
    build, the database bulk load and the update engine's rebuild all
    load tables through {!load}. *)

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

let row lead (n : Doc.node) ~start ~fin ~data =
  Rel.Tuple.of_list
    [ lead; Rel.Value.Int start; Rel.Value.Int fin; Rel.Value.Int n.level; data_value data ]

(** The SP row of [n] at the given labels and text; its P-label comes
    from [table] and the node's source path (Definition 3.3). *)
let sp_row table (n : Doc.node) =
  row (Rel.Value.Big (Blas_label.Plabel.node_label table n.source_path)) n

(** The SD row of [n] at the given labels and text. *)
let sd_row (n : Doc.node) = row (Rel.Value.Str n.tag) n

(** [load ?fill store spec rows] bulk-loads one relation into [store]. *)
let load ?fill store spec rows =
  Rel.Table.load ?fill store ~name:spec.name ~schema:spec.schema
    ~cluster_key:spec.cluster_key rows

(** [of_layout store spec ~dir] reopens one relation from its page
    directory. *)
let of_layout store spec ~dir =
  Rel.Table.of_layout store ~name:spec.name ~schema:spec.schema
    ~cluster_key:spec.cluster_key ~dir

(** [tables store table doc] bulk-loads [doc]'s SP and SD into [store],
    P-labels from [table]. *)
let tables store table (doc : Doc.t) =
  let rows f =
    List.map (fun (n : Doc.node) -> f n ~start:n.start ~fin:n.fin ~data:n.data) doc.all
  in
  (load store sp (rows (sp_row table)), load store sd (rows sd_row))
