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

    The same edits then run on each document saved as a [.blasdb]
    (default page size and codec), where every edit commits one WAL
    transaction; those cells add the median WAL bytes each edit kind
    logs.  The WAL is checkpointed (emptied) before each edit, outside
    the timing, so one edit's log is the WAL size after it.

    With [--check] (the CI gate, sharing {!Overhead.check_mode}) the
    run fails when the 4x document costs more than 2x per edit for any
    edit kind in memory — an edit that pays for the whole document
    scales with it — or when a RETEXT on the 4x database logs more than
    {!max_wal_ratio} times the WAL bytes it logs on the 1x one.  The
    byte count is deterministic: a commit that logs the whole catalog
    grows with the document's page directories. *)

let sizes = [ 160; 640 ]

let samples = 21

let max_ratio = 2.0

let max_wal_ratio = 1.25

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

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Runs [samples] retexts, inserts and deletes on Protein at [entries]
   through [edit] (which wraps one edit and returns its measurement)
   and summarizes each kind's measurements with [summary]. *)
let edits storage ~edit ~summary =
  let is tag (n : Blas_xpath.Doc.node) = n.tag = tag in
  let authors = nodes storage (fun n -> is "author" n && n.data <> None) in
  let retext =
    List.init samples (fun k ->
        let n = spread authors k in
        edit (fun () ->
            Blas.Update.replace_text storage ~start:n.start (Some (marker k))))
  in
  (* Inserts can renumber, so targets are looked up afresh each time. *)
  let insert =
    List.init samples (fun k ->
        let p = spread (nodes storage (is "authors")) k in
        let sub = Blas_xml.Types.(Element ("author", [ Content (marker (-k - 1)) ])) in
        edit (fun () ->
            Blas.Update.insert_subtree storage ~parent:p.start
              ~pos:(List.length p.children) sub))
  in
  let delete =
    List.init samples (fun k ->
        let n =
          (nodes storage (fun n -> n.data = Some (marker (-k - 1)))).(0)
        in
        edit (fun () -> Blas.Update.delete_subtree storage ~start:n.start))
  in
  [
    ("retext", summary retext);
    ("insert", summary insert);
    ("delete", summary delete);
  ]

let protein entries =
  Blas.index_of_tree (Blas_datagen.Protein.generate ~seed:1 ~entries ())

(* Fastest retext, insert and delete (ms) on in-memory Protein at
   [entries]. *)
let measure entries =
  let storage = protein entries in
  (* The index build leaves the collector a heap of garbage to get
     through; the edits should not pay for it. *)
  Gc.full_major ();
  let cells = edits storage ~edit:timed_ms ~summary:min_of in
  let count = Blas_xpath.Doc.node_count (Blas.Storage.doc storage) in
  (count, cells)

(* Fastest edit (ms) and median WAL bytes per edit, for each kind, on
   Protein at [entries] saved as a database file. *)
let measure_disk entries =
  let path = Filename.temp_file "bench_update_" ".blasdb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      Blas.Database.create ~path (protein entries);
      let storage = Blas.Database.open_ ~mode:Blas.Database.Rw ~path () in
      Fun.protect
        ~finally:(fun () -> Blas.Storage.close storage)
        (fun () ->
          let disk = Option.get (Blas.Storage.disk storage) in
          ignore (Blas.Storage.doc storage);
          Gc.full_major ();
          let edit f =
            disk.dk_checkpoint ();
            let ms = timed_ms f in
            (ms, disk.dk_wal_bytes ())
          in
          edits storage ~edit ~summary:(fun cells ->
              (min_of (List.map fst cells), median (List.map snd cells)))))

let run () =
  Bench_util.heading "Per-edit cost (Protein; fastest of 21 edits)";
  let gate ok fmt =
    Printf.ksprintf
      (fun msg ->
        if not ok then begin
          Printf.printf "GATE FAILED: %s\n%!" msg;
          if !Overhead.check_mode then Overhead.failed := true
        end)
      fmt
  in
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
        gate (ratio <= max_ratio)
          "%s costs %.2fx per edit on the 4x document (max %.1fx)" op ratio
          max_ratio;
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
  Bench_util.print_table ~title:"in memory" { Bench_util.header; rows };
  let small, large =
    match List.map measure_disk sizes with
    | [ s; l ] -> (s, l)
    | _ -> assert false
  in
  let rows =
    List.map
      (fun (op, (s_ms, s_wal)) ->
        let l_ms, l_wal = List.assoc op large in
        let wal_ratio = float_of_int l_wal /. float_of_int s_wal in
        if op = "retext" then
          gate (wal_ratio <= max_wal_ratio)
            "a retext logs %.2fx the WAL bytes on the 4x database (max %.2fx)"
            wal_ratio max_wal_ratio;
        [
          op;
          Printf.sprintf "%.3f" s_ms;
          string_of_int s_wal;
          Printf.sprintf "%.3f" l_ms;
          string_of_int l_wal;
          Printf.sprintf "%.2f" wal_ratio;
        ])
      small
  in
  let header =
    "edit"
    :: List.concat_map
         (fun entries ->
           [ Printf.sprintf "%d ms" entries; Printf.sprintf "%d WAL B" entries ])
         sizes
    @ [ "WAL ratio" ]
  in
  Bench_util.print_table ~title:".blasdb (fastest ms, median WAL bytes per edit)"
    { Bench_util.header; rows }
