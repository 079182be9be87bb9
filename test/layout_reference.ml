(** The index build's table rows taken from the labeled document model,
    as the build made them before it went through the label columns:
    one stable bucket pass per table over the nodes in start order. *)

module Doc = Blas_xpath.Doc
module Rel = Blas_rel
module Layout = Blas_update.Layout

(* The rows of [nodes] (in start order) grouped by their leading value
   [key], groups in key order, each in start order.  A group's rows
   share one copy of their leading value. *)
let clustered ~key nodes =
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun (n : Doc.node) ->
      let k = key n in
      let add lead rows =
        rows := Layout.row lead ~start:n.start ~fin:n.fin ~level:n.level ~data:n.data :: !rows
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

let clustered_rows (doc : Doc.t) =
  ( clustered ~key:(fun n -> Rel.Value.Int (Layout.plabel doc.guide n.source_path)) doc.all,
    clustered ~key:(fun n -> Rel.Value.Str n.tag) doc.all )

let tables store doc =
  let sp_rows, sd_rows = clustered_rows doc in
  (Layout.load store Layout.sp sp_rows, Layout.load store Layout.sd sd_rows)
