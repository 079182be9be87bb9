(** Incremental updates on a built storage — [Blas.Update].

    The heavy lifting lives in {!Blas_update.Update_engine}; this
    module binds the engine's mutable target to {!Storage.t} so edits
    apply in place and every subsequent {!Blas.run} (any translator,
    any engine) sees the updated document, labels and relations.

    {[
      let storage = Blas.index "<r><a>x</a></r>" in
      let report =
        Blas.Update.insert_subtree storage ~parent:1 ~pos:1
          (Blas_xml.Dom.parse "<b>new</b>")
      in
      report.nodes_relabeled  (* labels moved by this edit *)
    ]} *)

module Engine = Blas_update.Update_engine

type invalidation = Engine.invalidation = {
  inv_full : bool;
  inv_schema_changed : bool;
  inv_plabels : Blas_label.Bignum.t list;
}

type report = Engine.report = {
  nodes_inserted : int;
  nodes_deleted : int;
  nodes_relabeled : int;  (** existing nodes whose D-label moved *)
  plabels_allocated : int;  (** P-labels computed for this edit *)
  pages_written : int;  (** pages written through the buffer pool *)
  table_rebuilt : bool;
      (** the tag inventory changed, so every P-label was recomputed *)
  invalidation : invalidation;  (** what the query cache dropped *)
}

let pp_report = Engine.pp_report

let target_of (storage : Storage.t) : Engine.target =
  {
    doc = Storage.doc storage;
    table = storage.table;
    sp = storage.sp;
    sd = storage.sd;
    pool = storage.pool;
  }

let apply storage op =
  let run () =
    let target = target_of storage in
    let report = op target in
    Storage.set_doc storage target.Engine.doc;
    storage.Storage.table <- target.Engine.table;
    storage.Storage.sp <- target.Engine.sp;
    storage.Storage.sd <- target.Engine.sd;
    (* Fine-grained cache invalidation: drop exactly the entries whose
       P-interval contains a touched P-label, keeping the rest warm.
       Every row the edit changed carries one of those P-labels.  Runs
       even with the cache switched off — entries stored while it was
       on must not survive an edit made while it is off. *)
    let inv = report.invalidation in
    Qcache.invalidate (Storage.cache storage) ~full:inv.inv_full
      ~schema_changed:inv.inv_schema_changed ~plabels:inv.inv_plabels;
    (* Optimizer staleness accounting (and, past the threshold, a
       resample).  Inside the WAL transaction of a disk-backed storage,
       so the refreshed statistics commit with the edit's catalog. *)
    Optimizer.note_update storage report;
    report
  in
  (* Disk-backed storages wrap the whole edit — table writes, catalog,
     superblock — in one WAL transaction: fsync on commit, recovery to
     the committed state if the process dies mid-edit. *)
  match Storage.disk storage with
  | None -> run ()
  | Some d -> d.Storage.dk_with_tx run

(** [insert_subtree storage ~parent ~pos tree] inserts [tree] as the
    [pos]-th element child of the node starting at position [parent].
    @raise Invalid_argument on an unknown parent, out-of-range [pos] or
    a text-node root. *)
let insert_subtree storage ~parent ~pos tree =
  apply storage (fun t -> Engine.insert_subtree t ~parent ~pos tree)

(** [delete_subtree storage ~start] removes the node at [start] with
    all its descendants; the freed positions become gap budget.
    @raise Invalid_argument on an unknown position or the root. *)
let delete_subtree storage ~start =
  apply storage (fun t -> Engine.delete_subtree t ~start)

(** [replace_text storage ~start data] replaces the node's text value
    ([None] clears it).
    @raise Invalid_argument on an unknown position. *)
let replace_text storage ~start data =
  apply storage (fun t -> Engine.replace_text t ~start data)

(** [gap_budget storage] — [(free, span)]: unlabeled positions inside
    the root's interval vs. the interval size — the insert headroom
    before any renumbering. *)
let gap_budget (storage : Storage.t) = Engine.gap_budget (Storage.doc storage)
