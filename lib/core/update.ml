(** Incremental updates on a built storage — [Blas.Update].

    The heavy lifting lives in {!Blas_update.Update_engine}; this
    module binds the engine's mutable target to {!Storage.t} so edits
    apply in place and every subsequent {!Blas.run} (any translator,
    any engine) sees the updated labels and relations.  An edit runs
    over the storage's label columns and keeps them current, so the
    next {!Storage.doc} (a view of them) shows it.

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
  inv_plabels : int list;
}

type report = Engine.report = {
  nodes_inserted : int;
  nodes_deleted : int;
  nodes_relabeled : int;  (** existing nodes whose D-label moved *)
  plabels_allocated : int;  (** P-labels computed for this edit *)
  pages_written : int;  (** pages written through the buffer pool *)
  invalidation : invalidation;  (** what the query cache dropped *)
}

let pp_report = Engine.pp_report

let apply storage op =
  let page_rows = Cost.model_page_rows storage in
  let run () =
    let target =
      {
        Engine.cols = Storage.columns storage;
        guide = Storage.guide storage;
        sp = storage.Storage.sp;
        sd = storage.Storage.sd;
        pool = storage.Storage.pool;
      }
    in
    let report = op target in
    storage.Storage.guide <- target.Engine.guide;
    (* Fine-grained cache invalidation: drop exactly the entries whose
       P-interval contains a touched P-label, keeping the rest warm.
       Every row the edit changed carries one of those P-labels.  Runs
       even with the cache switched off — entries stored while it was
       on must not survive an edit made while it is off. *)
    let inv = report.invalidation in
    Qcache.invalidate (Storage.cache storage) ~full:inv.inv_full
      ~schema_changed:inv.inv_schema_changed ~plabels:inv.inv_plabels;
    (* The plan memo goes when the edit moved what a plan reads or
       [Auto2] prices with: the guide's paths, P-labels or counts, or
       SP's rows per page.  A resample below flushes it too
       ({!Storage.set_ostats}). *)
    if
      inv.inv_full || inv.inv_schema_changed
      || report.nodes_inserted + report.nodes_deleted > 0
      || Cost.model_page_rows storage <> page_rows
    then Qcache.flush_plans (Storage.cache storage);
    (* Optimizer staleness accounting (and, past the threshold, a
       resample).  Inside the WAL transaction of a disk-backed storage,
       so the refreshed statistics commit with the edit's catalog. *)
    Optimizer.note_update storage report;
    report
  in
  (* Disk-backed storages wrap the whole edit — table writes, catalog,
     superblock — in one WAL transaction: fsync on commit, recovery to
     the committed state if the process dies mid-edit.  An edit that
     raises may have moved anything, so every plan goes. *)
  try
    match Storage.disk storage with
    | None -> run ()
    | Some d -> d.Storage.dk_with_tx run
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Qcache.flush_plans (Storage.cache storage);
    Printexc.raise_with_backtrace e bt

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
    before any renumbering.  Reads the label columns, not the document
    model. *)
let gap_budget storage = Engine.gap_budget (Storage.columns storage)
