(** The two relations of the experimental setup (Section 5.2.1), defined
    once: SP(plabel, start, end, level, data) clustered by {plabel,
    start} for BLAS and SD(tag, start, end, level, data) clustered by
    {tag, start} for the D-labeling baseline.  The clustering is the
    index: each table's page directory serves the selections on its
    leading column, and there are no secondary indexes.  The index
    build, the database bulk load and the relabeling of an old catalog
    all load tables through {!load}, and each hands it rows already in
    cluster order, so nothing sorts them. *)

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
  Rel.Tuple.of_array
    [| lead; Rel.Value.Int start; Rel.Value.Int fin; Rel.Value.Int level; data_value data |]

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
