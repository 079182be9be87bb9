(** Tests for the on-disk storage engine: pager, WAL, store, database
    bulk-load/open, transactional updates, and crash recovery.

    The crash-recovery property is the heart of the suite: run a random
    edit script against a disk-backed storage with a fault injected at
    a random byte offset (every write past the budget is cut short and
    the "process" dies), reopen the file, and require the recovered
    database to equal a shadow in-memory storage that received exactly
    the committed prefix of the script. *)

open Test_util
module Pager = Blas_disk.Pager
module Wal = Blas_disk.Wal
module Store = Blas_disk.Store
module Io = Blas_disk.Io
module Database = Blas.Database

let temp_db () =
  let path = Filename.temp_file "blas_disk_test_" ".blasdb" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

let with_db f =
  let path = temp_db () in
  Fun.protect ~finally:(fun () -> cleanup path) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Pager                                                               *)

let test_pager_roundtrip () =
  with_db (fun path ->
      let p = Pager.create ~path ~page_size:256 in
      Pager.set_count p 2;
      Pager.write_page p 1 "hello";
      Pager.write_page p 2 (String.make 100 'x');
      Pager.set_root p "root-blob";
      Pager.flush_superblock p;
      Pager.sync p;
      Pager.close p;
      check_bool "sniffs as db" true (Pager.looks_like_db path);
      let p = Pager.open_path ~path ~mode:Pager.Ro in
      check_string "page 1" "hello" (Pager.read_page p 1);
      check_string "page 2" (String.make 100 'x') (Pager.read_page p 2);
      check_string "root" "root-blob" (Pager.root p);
      check_int "count" 2 (Pager.count p);
      Pager.close p)

let test_pager_detects_corruption () =
  with_db (fun path ->
      let p = Pager.create ~path ~page_size:256 in
      Pager.set_count p 1;
      Pager.write_page p 1 "payload";
      Pager.flush_superblock p;
      Pager.close p;
      (* Flip one payload byte behind the pager's back. *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd (256 + 8) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      let p = Pager.open_path ~path ~mode:Pager.Ro in
      check_bool "crc failure raises" true
        (match Pager.read_page p 1 with
        | exception Pager.Corrupt _ -> true
        | _ -> false);
      Pager.close p)

(* ------------------------------------------------------------------ *)
(* Checksum                                                            *)

(* The byte-at-a-time table walk the sliced CRC must agree with. *)
let crc_oracle s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 1 to 8 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF

let test_crc_known_answers () =
  check_int "empty" 0 (Blas_disk.Checksum.digest "");
  check_int "check value" 0xCBF43926 (Blas_disk.Checksum.digest "123456789")

(* Every length 0-70 (short tails, one and several 8-byte steps), each
   split at a random point: the sliced CRC equals the oracle and
   resumes across the split. *)
let test_crc_matches_oracle =
  let open QCheck2.Gen in
  qtest ~count:100 "crc matches the byte-at-a-time walk"
    (pair (string_size ~gen:char (return 70)) (list_size (return 71) nat))
    (fun (base, splits) ->
      List.for_all
        (fun (len, split) ->
          let s = String.sub base 0 len in
          let k = split mod (len + 1) in
          let a = String.sub s 0 k and b = String.sub s k (len - k) in
          let module C = Blas_disk.Checksum in
          C.digest s = crc_oracle s && C.update (C.digest a) b = C.digest s)
        (List.mapi (fun len split -> (len, split)) splits))

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)

let test_wal_replay_and_torn_tail () =
  with_db (fun path ->
      let wal = Wal.open_rw ~db_path:path ~page_size:512 in
      Wal.append_tx wal ~pages:[ (1, "one"); (2, "two") ] ~root:(Some "r1")
        ~count:2;
      Wal.append_tx wal ~pages:[ (1, "one'") ] ~root:None ~count:2;
      let size_committed = Wal.size wal in
      Wal.close wal;
      (* Append garbage — a torn third transaction. *)
      let fd = Unix.openfile (Wal.wal_path path) [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      ignore (Unix.write_substring fd "\x01\x02\x03garbage" 0 10);
      Unix.close fd;
      let wal = Wal.open_rw ~db_path:path ~page_size:512 in
      let seen = ref [] in
      let committed =
        Wal.replay wal ~apply:(fun ~pages ~root ~count ->
            seen := (pages, root, count) :: !seen)
      in
      check_int "two committed txs" 2 committed;
      (match List.rev !seen with
      | [ (p1, r1, c1); (p2, r2, c2) ] ->
        check_bool "tx1 pages" true (p1 = [ (1, "one"); (2, "two") ]);
        check_bool "tx1 root" true (r1 = Some "r1");
        check_int "tx1 count" 2 c1;
        check_bool "tx2 pages" true (p2 = [ (1, "one'") ]);
        check_bool "tx2 root" true (r2 = None);
        check_int "tx2 count" 2 c2
      | _ -> Alcotest.fail "expected two transactions");
      check_int "torn tail rewound" size_committed (Wal.size wal);
      Wal.close wal)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let test_store_commit_abort_reopen () =
  with_db (fun path ->
      let s = Store.create ~path ~page_size:256 () in
      Store.bulk_load s (fun () ->
          let p1 = Store.alloc_page s in
          Store.write_page s p1 "base";
          Store.set_root s "root0");
      (* Committed transaction. *)
      Store.begin_tx s;
      let p2 = Store.alloc_page s in
      Store.write_page s p2 "committed";
      Store.set_root s "root1";
      Store.commit s;
      (* Aborted transaction: invisible afterwards. *)
      Store.begin_tx s;
      Store.write_page s 1 "doomed";
      Store.set_root s "root2";
      Store.abort s;
      check_string "abort leaves page" "base" (Store.read_page s 1);
      check_string "abort leaves root" "root1" (Store.root s);
      Store.close s;
      let s = Store.open_path ~path ~mode:Store.Ro () in
      check_string "page 1 after reopen" "base" (Store.read_page s 1);
      check_string "page 2 after reopen" "committed" (Store.read_page s 2);
      check_string "root after reopen" "root1" (Store.root s);
      Store.close s)

let test_store_recovers_wal_tail () =
  with_db (fun path ->
      let s = Store.create ~path ~page_size:256 () in
      Store.bulk_load s (fun () ->
          let p = Store.alloc_page s in
          Store.write_page s p "v0";
          Store.set_root s "r0");
      Store.begin_tx s;
      Store.write_page s 1 "v1";
      Store.set_root s "r1";
      Store.commit s;
      (* Kill without sync or WAL truncation: the committed tail must
         replay on the next read-write open. *)
      Store.crash s;
      let s = Store.open_path ~path ~mode:Store.Rw () in
      check_string "replayed page" "v1" (Store.read_page s 1);
      check_string "replayed root" "r1" (Store.root s);
      check_int "wal reset after recovery" 0 (Store.wal_size s);
      Store.close s)

(* ------------------------------------------------------------------ *)
(* Database: bulk load, reopen, query equality                         *)

let fig10 =
  [
    ( "shakespeare",
      lazy (Blas.Storage.of_tree (Blas_datagen.Shakespeare.generate ~plays:1 ())),
      [
        ("QS1", "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE");
        ("QS2", "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR");
        ( "QS3",
          "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public \
           place.\"]//LINE" );
      ] );
    ( "protein",
      lazy (Blas.Storage.of_tree (Blas_datagen.Protein.generate ~entries:40 ())),
      [
        ("QP1", "/ProteinDatabase/ProteinEntry/protein/name");
        ( "QP2",
          "/ProteinDatabase/ProteinEntry//authors/author = \"Daniel, M.\"" );
        ( "QP3",
          "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and \
           year]]/protein/name" );
      ] );
    ( "auction",
      lazy (Blas.Storage.of_tree (Blas_datagen.Auction.generate ~scale:5 ())),
      [
        ("QA1", "//category/description/parlist/listitem");
        ("QA2", "/site/regions//item/description");
        ("QA3", "/site/regions/asia/item[shipping]/description");
      ] );
  ]

let translators = Blas.[ D_labeling; Split; Pushup; Unfold ]
let engines = Blas.[ Rdbms; Twig ]

let test_fig10_byte_identical () =
  List.iter
    (fun (dataset, mem, queries) ->
      let mem = Lazy.force mem in
      with_db (fun path ->
          Database.create ~page_size:1024 ~path mem;
          (* A page cache much smaller than the database file. *)
          let disk = Database.open_ ~cache_pages:8 ~mode:Database.Ro ~path () in
          let stats =
            match Blas.Storage.disk disk with
            | Some d -> d.Blas.Storage.dk_stats ()
            | None -> Alcotest.fail "expected a disk-backed storage"
          in
          check_bool
            (dataset ^ ": cache smaller than database")
            true
            (8 * 1024 < stats.Blas.Storage.dstat_file_bytes);
          List.iter
            (fun (qname, qs) ->
              let query = Blas.query qs in
              List.iter
                (fun translator ->
                  List.iter
                    (fun engine ->
                      let where =
                        Printf.sprintf "%s %s %s/%s" dataset qname
                          (Blas.translator_name translator)
                          (Blas.engine_name engine)
                      in
                      let expect =
                        Blas.answers mem ~engine ~translator query
                      in
                      let got =
                        Blas.answers disk ~engine ~translator query
                      in
                      check_int_list where expect got)
                    engines)
                translators)
            queries;
          check_bool
            (dataset ^ ": queries never forced the document")
            false
            (Blas.Storage.doc_resident disk);
          Blas.Storage.close disk))
    fig10

(* The compact codec under the same matrix: a v2-codec file must give
   byte-identical answers, out of a smaller file. *)
let test_codec_v2_byte_identical () =
  let dataset, mem, queries = List.hd fig10 in
  let mem = Lazy.force mem in
  with_db (fun path ->
      let v1_path = path ^ ".v1" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ v1_path; v1_path ^ ".wal" ])
        (fun () ->
          Database.create ~page_size:1024 ~codec:Blas_rel.Codec.V1
            ~path:v1_path mem;
          Database.create ~page_size:1024 ~codec:Blas_rel.Codec.V2 ~path mem;
          let disk = Database.open_ ~cache_pages:8 ~mode:Database.Ro ~path () in
          check_bool "catalog records the v2 codec" true
            (Blas.Storage.codec disk = Blas_rel.Codec.V2);
          let file_bytes p =
            let st = Unix.stat p in
            st.Unix.st_size
          in
          check_bool "v2 file smaller than v1" true
            (file_bytes path < file_bytes v1_path);
          List.iter
            (fun (qname, qs) ->
              let query = Blas.query qs in
              List.iter
                (fun translator ->
                  List.iter
                    (fun engine ->
                      let where =
                        Printf.sprintf "%s %s %s/%s (v2)" dataset qname
                          (Blas.translator_name translator)
                          (Blas.engine_name engine)
                      in
                      check_int_list where
                        (Blas.answers mem ~engine ~translator query)
                        (Blas.answers disk ~engine ~translator query))
                    engines)
                translators)
            queries;
          Blas.Storage.close disk))

(* No forced migration: a file indexed under the v1 codec (the layout
   every pre-codec build wrote) opens, answers, takes an edit, and
   stays v1 across reopen. *)
let test_v1_codec_file_compat () =
  with_db (fun path ->
      let mem = Blas.Storage.of_tree (Blas_xml.Dom.parse
        "<r><a>x</a><b><a>y</a></b></r>") in
      Database.create ~page_size:512 ~codec:Blas_rel.Codec.V1 ~path mem;
      let disk = Database.open_ ~cache_pages:8 ~mode:Database.Rw ~path () in
      check_bool "catalog records the v1 codec" true
        (Blas.Storage.codec disk = Blas_rel.Codec.V1);
      let q = Blas.query "//a" in
      check_int_list "v1 file answers" (Blas.oracle mem q)
        (Blas.answers disk ~engine:Blas.Rdbms ~translator:Blas.Auto2 q);
      ignore
        (Blas.Update.insert_subtree disk ~parent:1 ~pos:0
           (Blas_xml.Dom.parse "<a>z</a>"));
      (match Blas.Storage.disk disk with
      | Some d -> d.Blas.Storage.dk_close ()
      | None -> Alcotest.fail "expected disk storage");
      let reopened = Database.open_ ~cache_pages:8 ~mode:Database.Ro ~path () in
      check_bool "still v1 after edit and reopen" true
        (Blas.Storage.codec reopened = Blas_rel.Codec.V1);
      check_int_list "edit visible through v1 pages"
        (Blas.oracle reopened (Blas.query "//a"))
        (Blas.answers reopened ~engine:Blas.Twig ~translator:Blas.Auto2
           (Blas.query "//a"));
      Blas.Storage.close reopened)

let test_page_reads_are_measured_io () =
  with_db (fun path ->
      let mem =
        Blas.Storage.of_tree (Blas_datagen.Auction.generate ~scale:3 ())
      in
      Database.create ~page_size:512 ~path mem;
      let disk = Database.open_ ~cache_pages:16 ~mode:Database.Ro ~path () in
      let pool = Blas.Storage.pool disk in
      Blas.Storage.cold_cache disk;
      let misses0 = Blas_rel.Buffer_pool.misses pool in
      let report =
        Blas.run disk ~engine:Blas.Rdbms ~translator:Blas.Pushup
          (Blas.query "/site/regions//item/description")
      in
      let real_io = Blas_rel.Buffer_pool.misses pool - misses0 in
      check_int "page_reads is real pool I/O" real_io
        report.Blas.counters.Blas_rel.Counters.page_reads;
      check_bool "cold run touches disk" true (real_io > 0);
      Blas.Storage.close disk)

(* ------------------------------------------------------------------ *)
(* Updates: persistence, rollback, escalation                          *)

let doc_rows (storage : Blas.Storage.t) =
  List.map
    (fun (n : Blas_xpath.Doc.node) -> (n.tag, n.start, n.fin, n.level, n.data))
    (Blas.Storage.doc storage).Blas_xpath.Doc.all

let check_same_doc where shadow disk =
  check_bool where true (doc_rows shadow = doc_rows disk)

let test_update_persists () =
  with_db (fun path ->
      let mem = Blas.Storage.of_string "<r><a>x</a><b>y</b><a>z</a></r>" in
      Database.create ~page_size:512 ~path mem;
      let disk = Database.open_ ~cache_pages:32 ~mode:Database.Rw ~path () in
      let report =
        Blas.Update.insert_subtree disk ~parent:1 ~pos:1
          (Blas_xml.Dom.parse "<a>new</a>")
      in
      check_int "inserted" 1 report.Blas.Update.nodes_inserted;
      let rows_before_close = doc_rows disk in
      Blas.Storage.close disk;
      let disk = Database.open_ ~cache_pages:32 ~mode:Database.Ro ~path () in
      check_bool "update survives reopen" true
        (rows_before_close = doc_rows disk);
      check_int "query sees the insert" 3
        (List.length (Blas.answers disk ~engine:Blas.Rdbms
             ~translator:Blas.Pushup (Blas.query "//a")));
      Blas.Storage.close disk)

let test_escalation_persists () =
  with_db (fun path ->
      let mem = Blas.Storage.of_string "<r><a>x</a><b>y</b></r>" in
      Database.create ~page_size:512 ~path mem;
      let disk = Database.open_ ~cache_pages:32 ~mode:Database.Rw ~path () in
      (* A brand-new tag forces a tag-inventory rebuild: the engine
         reloads both tables into the file's free and fresh pages inside
         the same transaction. *)
      let report =
        Blas.Update.insert_subtree disk ~parent:1 ~pos:2
          (Blas_xml.Dom.parse "<zz>fresh</zz>")
      in
      check_bool "inventory rebuilt" true report.Blas.Update.table_rebuilt;
      let rows = doc_rows disk in
      Blas.Storage.close disk;
      let disk = Database.open_ ~cache_pages:32 ~mode:Database.Rw ~path () in
      check_bool "reloaded file reopens equal" true (rows = doc_rows disk);
      check_int "new tag queryable" 1
        (List.length (Blas.answers disk ~engine:Blas.Twig
             ~translator:Blas.D_labeling (Blas.query "//zz")));
      Blas.Storage.close disk)

let test_failed_update_rolls_back () =
  with_db (fun path ->
      let mem = Blas.Storage.of_string "<r><a>x</a><b>y</b></r>" in
      Database.create ~page_size:512 ~path mem;
      let disk = Database.open_ ~cache_pages:32 ~mode:Database.Rw ~path () in
      let before = doc_rows disk in
      check_bool "bad edit raises" true
        (match
           Blas.Update.insert_subtree disk ~parent:999999 ~pos:0
             (Blas_xml.Dom.parse "<a/>")
         with
        | exception Invalid_argument _ -> true
        | _ -> false);
      check_bool "state rolled back in memory" true (before = doc_rows disk);
      check_int "still queryable" 1
        (List.length (Blas.answers disk ~engine:Blas.Rdbms
             ~translator:Blas.Auto2 (Blas.query "//b")));
      Blas.Storage.close disk;
      let disk = Database.open_ ~cache_pages:32 ~mode:Database.Ro ~path () in
      check_bool "state rolled back on disk" true (before = doc_rows disk);
      Blas.Storage.close disk)

(* ------------------------------------------------------------------ *)
(* Crash recovery: random edit scripts x random fault offsets          *)

type edit =
  | Insert of int * int * string  (* parent rank, pos seed, tag *)
  | Graft of int * int * Blas_xml.Types.tree  (* parent rank, pos seed *)
  | Delete of int  (* victim rank *)
  | Prune of int  (* rank among the root's children *)
  | Retext of int * string  (* victim rank, new text *)

let edit_gen =
  let open QCheck2.Gen in
  frequency
    [
      ( 3,
        let* rank = int_range 0 50 in
        let* pos = int_range 0 5 in
        let* t = oneofa [| "a"; "b"; "c"; "zz" |] in
        return (Insert (rank, pos, t)) );
      (* A whole random subtree adds data pages, directory entries and
         paths: enough catalog bytes to grow the chain by a page, which
         deleting it again gives back. *)
      ( 2,
        let* rank = int_range 0 50 in
        let* pos = int_range 0 5 in
        let* tree = Test_util.tree_gen in
        return (Graft (rank, pos, tree)) );
      (2, map (fun r -> Delete r) (int_range 0 50));
      (2, map (fun r -> Prune r) (int_range 0 5));
      ( 1,
        let* r = int_range 0 50 in
        let* v = oneofa [| "x"; "y"; "new" |] in
        return (Retext (r, v)) );
    ]

let script_gen =
  let open QCheck2.Gen in
  let* doc = Test_util.doc_gen in
  let* edits = list_size (int_range 1 8) edit_gen in
  let* crash_at = int_range 0 (List.length edits - 1) in
  let* budget = int_range 0 4000 in
  return (doc, edits, crash_at, budget)

(* Resolve an edit against the current document: ranks index the node
   list modulo its size, so the same edit resolves identically on two
   equal storages. *)
let resolve_edit storage edit =
  let doc = Blas.Storage.doc storage in
  let all = Array.of_list doc.Blas_xpath.Doc.all in
  let node rank = all.(rank mod Array.length all) in
  match edit with
  | Insert (rank, pos, tag) ->
    let parent = node rank in
    let kids = List.length parent.Blas_xpath.Doc.children in
    `Insert
      ( parent.Blas_xpath.Doc.start,
        pos mod (kids + 1),
        Blas_xml.Types.Element (tag, [ Blas_xml.Types.Content "t" ]) )
  | Graft (rank, pos, tree) ->
    let parent = node rank in
    let kids = List.length parent.Blas_xpath.Doc.children in
    `Insert (parent.Blas_xpath.Doc.start, pos mod (kids + 1), tree)
  | Delete rank ->
    let victim = node rank in
    if victim.Blas_xpath.Doc.start = doc.Blas_xpath.Doc.root.Blas_xpath.Doc.start
    then `Skip
    else `Delete victim.Blas_xpath.Doc.start
  | Prune rank -> (
    match doc.Blas_xpath.Doc.root.Blas_xpath.Doc.children with
    | [] -> `Skip
    | kids ->
      `Delete (List.nth kids (rank mod List.length kids)).Blas_xpath.Doc.start)
  | Retext (rank, v) -> `Retext ((node rank).Blas_xpath.Doc.start, v)

let apply_edit storage = function
  | `Skip -> ()
  | `Insert (parent, pos, tree) ->
    ignore (Blas.Update.insert_subtree storage ~parent ~pos tree)
  | `Delete start -> ignore (Blas.Update.delete_subtree storage ~start)
  | `Retext (start, v) ->
    ignore (Blas.Update.replace_text storage ~start (Some v))

(* ------------------------------------------------------------------ *)
(* Stable catalog chain                                                 *)

let catalog_chain storage =
  match Blas.Storage.disk storage with
  | Some d -> d.Blas.Storage.dk_check_catalog ()
  | None -> Alcotest.fail "expected disk storage"

(* Commits whose chain grew or shrank, across the properties that track
   it (the crash property asserts it drew both). *)
let chain_grew = ref 0
let chain_shrank = ref 0

(* Whether [now] keeps [before]'s pages in place, counting a change of
   length. *)
let chain_stable before now =
  let nb = List.length before and nn = List.length now in
  if nn > nb then incr chain_grew;
  if nn < nb then incr chain_shrank;
  let common = min nb nn in
  List.filteri (fun i _ -> i < common) before
  = List.filteri (fun i _ -> i < common) now

let crash_recovery_law (tree, edits, crash_at, budget) =
  let path = temp_db () in
  Fun.protect
    ~finally:(fun () ->
      Io.set_fault None;
      cleanup path)
    (fun () ->
      let shadow = Blas.Storage.of_tree tree in
      Database.create ~page_size:512 ~path shadow;
      let disk = Database.open_ ~cache_pages:16 ~mode:Database.Rw ~path () in
      let chain = ref (catalog_chain disk) in
      let crashed = ref false in
      let pending = ref None in
      List.iteri
        (fun i edit ->
          if not !crashed then begin
            (* Resolve against the shadow — it equals the disk state on
               every committed prefix. *)
            let resolved = resolve_edit shadow edit in
            if i = crash_at then Io.set_fault (Some budget);
            (match apply_edit disk resolved with
            | () ->
              Io.set_fault None;
              let now = catalog_chain disk in
              if not (chain_stable !chain now) then
                Alcotest.fail "catalog chain moved";
              chain := now;
              apply_edit shadow resolved
            | exception Io.Crash ->
              Io.set_fault None;
              crashed := true;
              pending := Some resolved
            | exception e ->
              Io.set_fault None;
              raise e)
          end)
        edits;
      (match Blas.Storage.disk disk with
      | Some d -> if !crashed then d.Blas.Storage.dk_crash () else d.dk_close ()
      | None -> Alcotest.fail "expected disk storage");
      (* Recovery on open must restore a committed state.  A crash
         during the commit fsync is ambiguous — the commit record may
         have reached the file, in which case replay legitimately
         applies the interrupted edit — so accept the shadow either
         without or with that one edit. *)
      let reopened = Database.open_ ~cache_pages:16 ~mode:Database.Rw ~path () in
      let rows = doc_rows reopened in
      let ok =
        rows = doc_rows shadow
        ||
        match !pending with
        | Some r -> (
          match apply_edit shadow r with
          | () -> rows = doc_rows shadow
          | exception _ -> false)
        | None -> false
      in
      let queries_ok =
        List.for_all
          (fun q ->
            Blas.oracle shadow (Blas.query q)
            = Blas.answers reopened ~engine:Blas.Rdbms ~translator:Blas.Auto2
                (Blas.query q))
          [ "//a"; "//b"; "/r//c" ]
      in
      Blas.Storage.close reopened;
      ok && queries_ok)

let test_crash_recovery =
  qtest ~count:60 "crash mid-update recovers to committed state" script_gen
    crash_recovery_law

(* The property draws commits that grow or shrink the catalog chain
   too (Graft and Prune edits), but not in every run: this script grows
   the chain by grafting a wide subtree and shrinks it by pruning it
   again, and a crash at each of a range of byte budgets in either
   commit recovers.  The chain holds one directory entry per data page,
   so the graft's distinct 40-byte texts fill enough pages to grow it
   under either codec. *)
let test_crash_while_chain_resizes () =
  let tree = Blas_xml.Dom.parse "<r><a>x</a></r>" in
  let wide =
    Blas_xml.Types.Element
      ( "b",
        List.init 200 (fun i ->
            Blas_xml.Types.Element
              ( "c",
                [ Blas_xml.Types.Content (Printf.sprintf "%040d" (i * 7919)) ]
              )) )
  in
  let edits = [ Graft (0, 1, wide); Prune 1 ] in
  chain_grew := 0;
  chain_shrank := 0;
  check_bool "runs clean" true (crash_recovery_law (tree, edits, 2, 0));
  check_bool "the graft grows the chain" true (!chain_grew > 0);
  check_bool "the prune shrinks it" true (!chain_shrank > 0);
  List.iter
    (fun crash_at ->
      for step = 0 to 40 do
        (* Dense over the first records (the chain pages are logged
           first), then out past the main-file apply. *)
        let budget = step * step * 30 in
        check_bool
          (Printf.sprintf "crash in edit %d at byte %d" crash_at budget)
          true
          (crash_recovery_law (tree, edits, crash_at, budget))
      done)
    [ 0; 1 ]

exception Injected_abort

(* Runs [edit] to the end of its transaction, then fails it. *)
let apply_aborted (storage : Blas.Storage.t) edit =
  match storage.disk with
  | None -> Alcotest.fail "expected disk storage"
  | Some d ->
    let failing run =
      d.dk_with_tx (fun () ->
          ignore (run ());
          raise Injected_abort)
    in
    storage.disk <- Some { d with dk_with_tx = failing };
    Fun.protect
      ~finally:(fun () -> storage.disk <- Some d)
      (fun () -> try apply_edit storage edit with Injected_abort -> ())

type step = Commit of edit | Abort of edit | Reopen

let chain_script_gen =
  let open QCheck2.Gen in
  let step =
    frequency
      [
        (6, map (fun e -> Commit e) edit_gen);
        (2, map (fun e -> Abort e) edit_gen);
        (1, return Reopen);
      ]
  in
  pair Test_util.doc_gen (list_size (int_range 1 12) step)

(* After every commit, abort and reopen, the chain read back from the
   file decodes to what a fresh encoding of the resident components
   gives ([dk_check_catalog]), and its pages stay where they were. *)
let stable_chain_law (tree, steps) =
  let path = temp_db () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let shadow = Blas.Storage.of_tree tree in
      Database.create ~page_size:512 ~path shadow;
      let open_rw () =
        Database.open_ ~cache_pages:16 ~mode:Database.Rw ~path ()
      in
      let disk = ref (open_rw ()) in
      let chain = ref (catalog_chain !disk) in
      let stable =
        List.for_all
          (fun step ->
            (match step with
            | Commit e ->
              let r = resolve_edit shadow e in
              apply_edit !disk r;
              apply_edit shadow r
            | Abort e -> apply_aborted !disk (resolve_edit shadow e)
            | Reopen ->
              Blas.Storage.close !disk;
              disk := open_rw ());
            let now = catalog_chain !disk in
            let ok = chain_stable !chain now in
            chain := now;
            ok)
          steps
      in
      let same = doc_rows !disk = doc_rows shadow in
      Blas.Storage.close !disk;
      stable && same)

let test_stable_chain =
  qtest ~count:60 "catalog chain stays put and matches the components"
    chain_script_gen stable_chain_law

(* The page ids of the last transaction in [path]'s WAL. *)
let last_logged_pages path =
  match Wal.open_ro_opt ~db_path:path with
  | None -> []
  | Some wal ->
    Fun.protect
      ~finally:(fun () -> Wal.close wal)
      (fun () ->
        let last = ref [] in
        ignore
          (Wal.replay wal ~apply:(fun ~pages ~root:_ ~count:_ ->
               last := List.map fst pages));
        !last)

(* A same-length RETEXT changes a few catalog bytes: the chain keeps
   its pages and the commit logs only the one or two chain pages that
   changed, not the whole chain — also right after a reopen, whose
   baseline is the chain as read from the file.  The first commit
   after [create] is the exception: it records the chain pages in the
   free list ([create] writes an empty one), which shifts every later
   byte. *)
let test_retext_logs_changed_chain_pages () =
  with_db (fun path ->
      Database.create ~path
        (Blas.Storage.of_tree
           (Blas_datagen.Auction.generate ~seed:1 ~scale:16 ()));
      let retext disk k =
        let texts =
          Array.of_list
            (List.filter
               (fun (n : Blas_xpath.Doc.node) -> n.data <> None)
               (Blas.Storage.doc disk).all)
        in
        let n = texts.(k * Array.length texts / 5) in
        (* Same length, so the page keeps its rows: no split moves the
           page directory. *)
        let text =
          String.map (fun c -> if c = 'x' then 'y' else 'x')
            (Option.get n.data)
        in
        ignore (Blas.Update.replace_text disk ~start:n.start (Some text))
      in
      let disk = Database.open_ ~mode:Database.Rw ~path () in
      let chain = catalog_chain disk in
      check_bool "chain spans several pages" true (List.length chain > 2);
      retext disk 0;
      check_int_list "first commit keeps the chain's pages" chain
        (catalog_chain disk);
      let disk = ref disk in
      List.iter
        (fun k ->
          if k = 3 then begin
            Blas.Storage.close !disk;
            disk := Database.open_ ~mode:Database.Rw ~path ()
          end;
          retext !disk k;
          check_int_list "chain keeps its pages" chain (catalog_chain !disk);
          let logged =
            List.filter (fun p -> List.mem p chain) (last_logged_pages path)
          in
          check_bool
            (Printf.sprintf "retext %d logs %d catalog pages" k
               (List.length logged))
            true
            (List.length logged <= 2))
        [ 1; 2; 3; 4 ];
      Blas.Storage.close !disk)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats () =
  with_db (fun path ->
      let mem =
        Blas.Storage.of_tree (Blas_datagen.Auction.generate ~scale:2 ())
      in
      Database.create ~page_size:512 ~path mem;
      let disk = Database.open_ ~cache_pages:16 ~mode:Database.Ro ~path () in
      let s =
        match Blas.Storage.disk disk with
        | Some d -> d.Blas.Storage.dk_stats ()
        | None -> Alcotest.fail "expected disk storage"
      in
      check_int "page size" 512 s.Blas.Storage.dstat_page_size;
      (* The final page's frame may be shorter than a full page slot. *)
      check_bool "file bytes bounded by (pages + superblock) slots" true
        (s.Blas.Storage.dstat_file_bytes
         <= (s.Blas.Storage.dstat_page_count + 1) * 512
        && s.Blas.Storage.dstat_file_bytes
           > s.Blas.Storage.dstat_page_count * 8);
      check_int "a fresh file has every page live"
        s.Blas.Storage.dstat_page_count s.Blas.Storage.dstat_live_pages;
      check_int "and none free" 0 s.Blas.Storage.dstat_free_pages;
      check_bool "live pages exist" true (s.Blas.Storage.dstat_live_pages > 0);
      check_bool "live bytes fit live pages" true
        (s.Blas.Storage.dstat_live_bytes
        <= s.Blas.Storage.dstat_live_pages * 512);
      check_int "wal empty after clean open" 0 s.Blas.Storage.dstat_wal_bytes;
      check_int "cache capacity" 16 s.Blas.Storage.dstat_cache_pages;
      check_bool "cache residency bounded" true
        (s.Blas.Storage.dstat_cache_resident <= 16);
      Blas.Storage.close disk)

(* Catalogs written before v5 carry a leaf directory per secondary index
   (catalog_v2: v1 codec; v3: v2 codec; v4: v1 codec, the last version
   with indexes; each 9 pages of 512 bytes, 6 of them leaves).  A
   read-write open hands the leaves to the free list, the first commit
   writes a v5 catalog without them, and the reopened file answers as
   the oracle does with every page either live or free. *)
let test_older_catalogs_give_leaves_back () =
  List.iter
    (fun name ->
      with_db (fun path ->
          copy_fixture name path;
          let disk = Database.open_ ~mode:Database.Rw ~path () in
          ignore (Blas.Update.replace_text disk ~start:1 (Some "t"));
          Blas.Storage.close disk;
          let reopened = Database.open_ ~mode:Database.Rw ~path () in
          Fun.protect
            ~finally:(fun () -> Blas.Storage.close reopened)
            (fun () ->
              let d = Option.get (Blas.Storage.disk reopened) in
              ignore (d.Blas.Storage.dk_check_catalog ());
              let s = d.Blas.Storage.dk_stats () in
              check_int (name ^ ": file pages") 9 s.Blas.Storage.dstat_page_count;
              check_int (name ^ ": live pages") 3 s.Blas.Storage.dstat_live_pages;
              check_int (name ^ ": every page live or free")
                s.Blas.Storage.dstat_page_count
                (s.Blas.Storage.dstat_live_pages + s.Blas.Storage.dstat_free_pages);
              List.iter
                (fun qs ->
                  let q = Blas.query qs in
                  List.iter
                    (fun (engine, translator) ->
                      check_int_list (name ^ ": " ^ qs) (Blas.oracle reopened q)
                        (Blas.answers reopened ~engine ~translator q))
                    [
                      (Blas.Rdbms, Blas.Auto2);
                      (Blas.Rdbms, Blas.D_labeling);
                      (Blas.Rdbms, Blas.Unfold);
                      (Blas.Twig, Blas.Split);
                    ])
                [ "//b/a"; "/r/a"; "//a[. = \"x\"]"; "//*[. = \"y\"]"; "/r/*" ];
              (* The freed leaves take the pages the split data pages
                 need. *)
              ignore
                (Blas.Update.insert_subtree reopened ~parent:1 ~pos:0
                   (Blas_xml.Types.Element
                      ("a", [ Blas_xml.Types.Content (String.make 400 'z') ])));
              let s = d.Blas.Storage.dk_stats () in
              check_int (name ^ ": no page added") 9 s.Blas.Storage.dstat_page_count;
              check_bool (name ^ ": split pages came from the free list") true
                (s.Blas.Storage.dstat_live_pages > 3);
              check_int (name ^ ": every page still live or free")
                s.Blas.Storage.dstat_page_count
                (s.Blas.Storage.dstat_live_pages + s.Blas.Storage.dstat_free_pages);
              ignore (d.Blas.Storage.dk_check_catalog ()))))
    [ "catalog_v2.blasdb"; "catalog_v3.blasdb"; "catalog_v4.blasdb" ]

(* Saving a database over itself would truncate the file it reads from:
   POSIX locks never conflict within one process, so [create] compares
   device and inode instead — under any spelling of the path. *)
let test_create_refuses_own_file () =
  with_db (fun path ->
      let mem = Blas.Storage.of_string "<r><a>x</a><b>y</b></r>" in
      Database.create ~page_size:512 ~path mem;
      let size = (Unix.stat path).st_size in
      let disk = Database.open_ ~mode:Database.Rw ~path () in
      let alias =
        Filename.concat (Filename.dirname path)
          (Filename.concat "." (Filename.basename path))
      in
      List.iter
        (fun target ->
          match Database.create ~path:target disk with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "create over %s was accepted" target)
        [ path; alias ];
      Blas.Storage.close disk;
      check_int "file untouched" size (Unix.stat path).st_size;
      check_bool "wal kept" true (Sys.file_exists (path ^ ".wal"));
      let disk = Database.open_ ~mode:Database.Ro ~path () in
      check_int "still answers" 1
        (List.length
           (Blas.answers disk ~engine:Blas.Rdbms ~translator:Blas.Pushup
              (Blas.query "//a")));
      Blas.Storage.close disk)

(* [create] over a database another process holds must fail on the lock
   before it deletes anything — the holder's WAL included. *)
let test_create_on_locked_file () =
  with_db (fun path ->
      Database.create ~page_size:512 ~path
        (Blas.Storage.of_string "<r><a>x</a></r>");
      let holder =
        Filename.concat (Filename.dirname Sys.executable_name) "lock_holder.exe"
      in
      let from_holder, to_holder =
        Unix.open_process_args holder [| holder; path |]
      in
      let outcome, wal_kept =
        Fun.protect
          ~finally:(fun () -> ignore (Unix.close_process (from_holder, to_holder)))
          (fun () ->
            check_string "holder ready" "ready" (input_line from_holder);
            let outcome =
              match
                Database.create ~page_size:512 ~path
                  (Blas.Storage.of_string "<r><b/></r>")
              with
              | () -> `Created
              | exception Database.Corrupt _ -> `Refused
            in
            (outcome, Sys.file_exists (path ^ ".wal")))
      in
      check_bool "create refused" true (outcome = `Refused);
      check_bool "holder's wal kept" true wal_kept;
      let disk = Database.open_ ~mode:Database.Ro ~path () in
      check_int "original answers" 1
        (List.length
           (Blas.answers disk ~engine:Blas.Rdbms ~translator:Blas.Pushup
              (Blas.query "//a")));
      Blas.Storage.close disk)

let suite =
  [
    Alcotest.test_case "crc known answers" `Quick test_crc_known_answers;
    test_crc_matches_oracle;
    Alcotest.test_case "pager roundtrip" `Quick test_pager_roundtrip;
    Alcotest.test_case "pager detects corruption" `Quick
      test_pager_detects_corruption;
    Alcotest.test_case "wal replay and torn tail" `Quick
      test_wal_replay_and_torn_tail;
    Alcotest.test_case "store commit/abort/reopen" `Quick
      test_store_commit_abort_reopen;
    Alcotest.test_case "store recovers wal tail" `Quick
      test_store_recovers_wal_tail;
    Alcotest.test_case "fig10 byte-identical on disk" `Quick
      test_fig10_byte_identical;
    Alcotest.test_case "v2 codec byte-identical, smaller file" `Quick
      test_codec_v2_byte_identical;
    Alcotest.test_case "v1 codec files open without migration" `Quick
      test_v1_codec_file_compat;
    Alcotest.test_case "page reads are measured io" `Quick
      test_page_reads_are_measured_io;
    Alcotest.test_case "update persists" `Quick test_update_persists;
    Alcotest.test_case "escalation reloads and persists" `Quick
      test_escalation_persists;
    Alcotest.test_case "failed update rolls back" `Quick
      test_failed_update_rolls_back;
    test_crash_recovery;
    Alcotest.test_case "crash while the catalog chain resizes" `Quick
      test_crash_while_chain_resizes;
    test_stable_chain;
    Alcotest.test_case "retext logs only changed chain pages" `Quick
      test_retext_logs_changed_chain_pages;
    Alcotest.test_case "disk stats" `Quick test_stats;
    Alcotest.test_case "older catalogs open and give their leaves back"
      `Quick test_older_catalogs_give_leaves_back;
    Alcotest.test_case "create refuses its own source file" `Quick
      test_create_refuses_own_file;
    Alcotest.test_case "create on a locked file keeps its WAL" `Quick
      test_create_on_locked_file;
  ]
