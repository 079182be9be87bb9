(** bench update: the per-edit cost of {!Blas.Update} as the document
    grows.

    Protein at 160 and at 640 entries (about 11k and 45k nodes) is
    indexed in memory, and each edit kind runs [samples] times on
    targets spread evenly over the document: RETEXT replaces an
    author's text, INSERT appends an [<author>] to an [authors] list,
    DELETE removes the author that round inserted.  An edit touches a
    few pages and a few nodes whatever the document size, so its cost
    should not grow with the document.

    One edit takes 0.05-0.3 ms, so a single preempted sample on a small
    shared machine can double a cell.  The two documents are therefore
    edited in paired rounds: each round runs one edit of each kind on
    both documents, back to back in random order, and takes the ratio
    of the two times; a cell is the median over the rounds (as
    {!Overhead} pairs its runs).

    The same edits then run on each document saved as a [.blasdb]
    (default page size and codec), where every edit commits one WAL
    transaction; those cells are the fastest edit and the median WAL
    bytes and catalog chain pages each edit kind logs.  The WAL is checkpointed (emptied)
    before each edit, outside the timing, so one edit's log is the WAL
    size after it.

    Last, the labels an INSERT moves: [samples] untimed inserts each on
    in-memory Protein (an [<author>] appended to [authors]) and Auction
    at scale 16 (a [<bidder><date/><increase/></bidder>] appended to an
    [open_auction], which has no free position at its end), with the
    medians of the nodes each relabels and the pages each writes.  Both
    counts are deterministic.

    With [--check] (the CI gate, sharing {!Overhead.check_mode}) the
    run fails when the median paired ratio of any edit kind in memory
    exceeds {!max_ratio} — an edit that pays for the whole document
    scales with it — or when an edit of any kind on the 4x database
    logs more than {!max_wal_ratio} times the WAL bytes it logs on the
    1x one (the byte count is deterministic: a commit that logs the
    whole catalog, or every chain page after a changed directory,
    grows with the document's page directories), or when the Auction
    INSERT's median relabels more than {!max_auction_relabeled} nodes:
    renumbering the enclosing subtree instead of the narrowest label
    window that fits moves 19-42. *)

let sizes = [ 160; 640 ]

let samples = 21

let max_ratio = 2.0

let max_wal_ratio = 1.25

let max_auction_relabeled = 16

let marker i = Printf.sprintf "bench-update-%d" i

(* The [k]-th of [samples] picks spread evenly over [arr]. *)
let spread arr k = arr.(k * Array.length arr / samples)

module Columns = Blas_update.Columns

(* The nodes tagged [tag] whose text satisfies [pred], in document
   order, each as its start and its count of element children.  They
   are read from the label columns the edits keep current, allocating
   little beyond the hits, so each timed edit finds the caches much as
   the edit before it left them. *)
let nodes storage ~tag pred =
  let c = Blas.Storage.columns storage in
  let tags =
    Array.init (Hashtbl.length c.ids) (fun id -> Blas_update.Layout.tag c.paths.(id))
  in
  let hits = ref [] in
  for i = Columns.length c - 1 downto 0 do
    if tags.(c.path.{i}) = tag && pred (Columns.Texts.find_opt c.texts c.key.{i}) then
      hits := i :: !hits
  done;
  Array.of_list
    (List.map (fun i -> (c.start.{i}, List.length (Columns.children c i))) !hits)

let timed_ms f =
  let t0 = Bench_util.now_ns () in
  ignore (f ());
  Int64.to_float (Int64.sub (Bench_util.now_ns ()) t0) /. 1e6

let min_of = List.fold_left Float.min Float.infinity

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* The edit kinds, each as [prepare storage k]: find the [k]-th
   round's target (untimed) and return the edit.  Inserts can renumber,
   so targets are looked up afresh each time; a round's delete removes
   the author its insert added. *)
let kinds =
  [
    ( "retext",
      fun storage k ->
        let start, _ = spread (nodes storage ~tag:"author" (fun d -> d <> None)) k in
        fun () -> Blas.Update.replace_text storage ~start (Some (marker k)) );
    ( "insert",
      fun storage k ->
        let parent, pos = spread (nodes storage ~tag:"authors" (fun _ -> true)) k in
        let sub = Blas_xml.Types.(Element ("author", [ Content (marker (-k - 1)) ])) in
        fun () -> Blas.Update.insert_subtree storage ~parent ~pos sub );
    ( "delete",
      fun storage k ->
        let start, _ =
          (nodes storage ~tag:"author" (fun d -> d = Some (marker (-k - 1)))).(0)
        in
        fun () -> Blas.Update.delete_subtree storage ~start );
  ]

let protein entries =
  Blas.index_of_tree (Blas_datagen.Protein.generate ~seed:1 ~entries ())

(* [samples] inserts of [sub k], the [k]-th appended to the [k]-th of
   [samples] nodes tagged [parent] spread over [storage]: the medians
   of the nodes each relabeled and of the pages each wrote. *)
let insert_counts storage ~parent sub =
  let reports =
    List.init samples (fun k ->
        let start, pos = spread (nodes storage ~tag:parent (fun _ -> true)) k in
        Blas.Update.insert_subtree storage ~parent:start ~pos (sub k))
  in
  ( median (List.map (fun (r : Blas.Update.report) -> r.nodes_relabeled) reports),
    median (List.map (fun (r : Blas.Update.report) -> r.pages_written) reports) )

(* Paired rounds on in-memory Protein at both sizes: per edit kind,
   the median ms on each and the median of the rounds' large/small
   ratios; and each document's node count. *)
let measure_paired () =
  let small = protein (List.nth sizes 0) and large = protein (List.nth sizes 1) in
  (* The index builds leave the collector a heap of garbage to get
     through; the edits should not pay for it. *)
  Gc.full_major ();
  let rng = Random.State.make [| samples |] in
  let rounds =
    List.init samples (fun k ->
        List.map
          (fun (op, prepare) ->
            let s = prepare small k and l = prepare large k in
            if Random.State.bool rng then
              let s_ms = timed_ms s in
              (op, (s_ms, timed_ms l))
            else
              let l_ms = timed_ms l in
              (op, (timed_ms s, l_ms)))
          kinds)
  in
  let cells =
    List.map
      (fun (op, _) ->
        let pairs = List.map (List.assoc op) rounds in
        ( op,
          ( median (List.map fst pairs),
            median (List.map snd pairs),
            median (List.map (fun (s, l) -> l /. s) pairs) ) ))
      kinds
  in
  (cells, List.map Blas.Storage.node_count [ small; large ])

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
          (* builds the label columns the edits run over *)
          ignore (Blas.Update.gap_budget storage);
          Gc.full_major ();
          let chain_writes () = (disk.dk_stats ()).Blas.Storage.dstat_catalog_writes in
          let edit f =
            disk.dk_checkpoint ();
            let writes = chain_writes () in
            let ms = timed_ms f in
            (ms, (disk.dk_wal_bytes (), chain_writes () - writes))
          in
          let rounds =
            List.init samples (fun k ->
                List.map (fun (op, prepare) -> (op, edit (prepare storage k))) kinds)
          in
          List.map
            (fun (op, _) ->
              let cells = List.map (List.assoc op) rounds in
              ( op,
                ( min_of (List.map fst cells),
                  median (List.map (fun (_, (wal, _)) -> wal) cells),
                  median (List.map (fun (_, (_, chain)) -> chain) cells) ) ))
            kinds))

let run () =
  Bench_util.heading
    (Printf.sprintf "Per-edit cost (Protein; %d paired rounds)" samples);
  let gate ok fmt =
    Printf.ksprintf
      (fun msg ->
        if not ok then begin
          Printf.printf "GATE FAILED: %s\n%!" msg;
          if !Overhead.check_mode then Overhead.failed := true
        end)
      fmt
  in
  let cells, counts = measure_paired () in
  let rows =
    List.map
      (fun (op, (s, l, ratio)) ->
        gate (ratio <= max_ratio)
          "%s costs %.2fx per edit on the 4x document (median of %d paired \
           rounds; max %.1fx)"
          op ratio samples max_ratio;
        [ op; Printf.sprintf "%.3f" s; Printf.sprintf "%.3f" l; Printf.sprintf "%.2f" ratio ])
      cells
  in
  let header =
    "edit"
    :: List.map2
         (fun entries count -> Printf.sprintf "%d entries (%d nodes) ms" entries count)
         sizes counts
    @ [ "paired ratio" ]
  in
  Bench_util.print_table ~title:"in memory (medians)" { Bench_util.header; rows };
  let small, large =
    match List.map measure_disk sizes with
    | [ s; l ] -> (s, l)
    | _ -> assert false
  in
  let rows =
    List.map
      (fun (op, (s_ms, s_wal, s_chain)) ->
        let l_ms, l_wal, l_chain = List.assoc op large in
        let wal_ratio = float_of_int l_wal /. float_of_int s_wal in
        gate (wal_ratio <= max_wal_ratio)
          "a %s logs %.2fx the WAL bytes on the 4x database (max %.2fx)" op
          wal_ratio max_wal_ratio;
        [
          op;
          Printf.sprintf "%.3f" s_ms;
          string_of_int s_wal;
          string_of_int s_chain;
          Printf.sprintf "%.3f" l_ms;
          string_of_int l_wal;
          string_of_int l_chain;
          Printf.sprintf "%.2f" wal_ratio;
        ])
      small
  in
  let header =
    "edit"
    :: List.concat_map
         (fun entries ->
           [
             Printf.sprintf "%d ms" entries;
             Printf.sprintf "%d WAL B" entries;
             Printf.sprintf "%d chain pg" entries;
           ])
         sizes
    @ [ "WAL ratio" ]
  in
  Bench_util.print_table
    ~title:".blasdb (fastest ms, median WAL bytes and catalog chain pages per edit)"
    { Bench_util.header; rows };
  let author k = Blas_xml.Types.(Element ("author", [ Content (marker k) ])) in
  let bidder _ = Blas_xml.Dom.parse "<bidder><date/><increase/></bidder>" in
  let counts =
    [
      ( Printf.sprintf "Protein %d entries: <author>" (List.nth sizes 0),
        insert_counts (protein (List.nth sizes 0)) ~parent:"authors" author );
      ( "Auction scale 16: <bidder>",
        insert_counts
          (Blas.index_of_tree (Blas_datagen.Auction.generate ~scale:16 ()))
          ~parent:"open_auction" bidder );
    ]
  in
  let _, (auction_relabeled, _) = List.nth counts 1 in
  gate (auction_relabeled <= max_auction_relabeled)
    "an Auction INSERT relabels %d nodes (median of %d; max %d)" auction_relabeled
    samples max_auction_relabeled;
  Bench_util.print_table
    ~title:(Printf.sprintf "INSERT label moves (medians of %d inserts, in memory)" samples)
    {
      Bench_util.header = [ "insert"; "nodes relabeled"; "pages written" ];
      rows =
        List.map
          (fun (name, (relabeled, pages)) ->
            [ name; string_of_int relabeled; string_of_int pages ])
          counts;
    }
