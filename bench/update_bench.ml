(** bench update: the per-edit cost of {!Blas.Update} as the document
    grows.

    Protein at 160 and at 640 entries (about 11k and 45k nodes) is
    indexed in memory, and each edit kind runs [samples] times on
    targets spread evenly over the document: RETEXT replaces an
    author's text, INSERT appends an [<author>] to an [authors] list,
    DELETE removes one of the inserted authors again.  Each cell is
    the fastest single edit in milliseconds: an edit touches a few
    pages and a few nodes whatever the document size, so the minimum is
    the cost of the edit itself, clear of collector pauses and of the
    optimizer's occasional resample.

    With [--check] (the CI gate, sharing {!Overhead.check_mode}) the
    run fails when the 4x document costs more than 2x per edit for any
    edit kind: an edit that pays for the whole document scales with it. *)

let sizes = [ 160; 640 ]

let samples = 21

let max_ratio = 2.0

let marker i = Printf.sprintf "bench-update-%d" i

(* The [k]-th of [samples] picks spread evenly over [arr]. *)
let spread arr k = arr.(k * Array.length arr / samples)

let nodes storage pred =
  Array.of_list (List.filter pred (Blas.Storage.doc storage).Blas_xpath.Doc.all)

let timed_ms f =
  let t0 = Bench_util.now_ns () in
  ignore (f ());
  Int64.to_float (Int64.sub (Bench_util.now_ns ()) t0) /. 1e6

let min_of = List.fold_left Float.min Float.infinity

(* Fastest retext, insert and delete (ms) on Protein at [entries]. *)
let measure entries =
  let storage =
    Blas.index_of_tree (Blas_datagen.Protein.generate ~seed:1 ~entries ())
  in
  (* The index build leaves the collector a heap of garbage to get
     through; the edits should not pay for it. *)
  Gc.full_major ();
  let is tag (n : Blas_xpath.Doc.node) = n.tag = tag in
  let authors = nodes storage (fun n -> is "author" n && n.data <> None) in
  let retext =
    List.init samples (fun k ->
        let n = spread authors k in
        timed_ms (fun () ->
            Blas.Update.replace_text storage ~start:n.start (Some (marker k))))
  in
  (* Inserts can renumber, so targets are looked up afresh each time. *)
  let insert =
    List.init samples (fun k ->
        let p = spread (nodes storage (is "authors")) k in
        let sub = Blas_xml.Types.(Element ("author", [ Content (marker (-k - 1)) ])) in
        timed_ms (fun () ->
            Blas.Update.insert_subtree storage ~parent:p.start
              ~pos:(List.length p.children) sub))
  in
  let delete =
    List.init samples (fun k ->
        let n =
          (nodes storage (fun n -> n.data = Some (marker (-k - 1)))).(0)
        in
        timed_ms (fun () -> Blas.Update.delete_subtree storage ~start:n.start))
  in
  let count = Blas_xpath.Doc.node_count (Blas.Storage.doc storage) in
  (count, [ ("retext", min_of retext); ("insert", min_of insert); ("delete", min_of delete) ])

let run () =
  Bench_util.heading "Per-edit cost (in-memory Protein; fastest of 21 edits)";
  let results = List.map (fun entries -> (entries, measure entries)) sizes in
  let small, large =
    match results with
    | [ (_, (_, s)); (_, (_, l)) ] -> (s, l)
    | _ -> assert false
  in
  let rows =
    List.map
      (fun (op, s) ->
        let l = List.assoc op large in
        let ratio = l /. s in
        if ratio > max_ratio then begin
          Printf.printf "GATE FAILED: %s costs %.2fx per edit on the 4x document (max %.1fx)\n%!"
            op ratio max_ratio;
          if !Overhead.check_mode then Overhead.failed := true
        end;
        [ op; Printf.sprintf "%.3f" s; Printf.sprintf "%.3f" l; Printf.sprintf "%.2f" ratio ])
      small
  in
  let header =
    "edit"
    :: List.map
         (fun (entries, (count, _)) -> Printf.sprintf "%d entries (%d nodes) ms" entries count)
         results
    @ [ "ratio" ]
  in
  Bench_util.print_table { Bench_util.header; rows }
