(** Tests for index persistence: a storage saved as a database file
    and opened again must behave exactly like the one that was saved. *)

module Database = Blas.Database

let relation_rows table =
  Array.to_list (Blas_rel.Relation.tuples (Blas_rel.Table.relation table))

let same_storage (a : Blas.Storage.t) (b : Blas.Storage.t) =
  List.for_all2 Blas_rel.Tuple.equal (relation_rows a.sp) (relation_rows b.sp)
  && List.for_all2 Blas_rel.Tuple.equal (relation_rows a.sd) (relation_rows b.sd)

let round_trips storage = Test_util.with_db_copy storage (same_storage storage)

(* A damaged file must be refused with [Corrupt], either at open or when
   every live page is read back (the disk stats walk data pages, index
   leaves and the catalog chain; the document model rebuilds from SD) —
   never answered from. *)
let rejected path =
  match Database.open_ ~mode:Database.Ro ~path () with
  | exception Database.Corrupt _ -> true
  | storage ->
    Fun.protect
      ~finally:(fun () -> Blas.Storage.close storage)
      (fun () ->
        match
          Option.iter (fun d -> ignore (d.Blas.Storage.dk_stats ()))
            (Blas.Storage.disk storage);
          Blas.Storage.doc storage
        with
        | exception Database.Corrupt _ -> true
        | _ -> false)

let unit_tests =
  [
    ( "round trip preserves both relations",
      fun () ->
        let storage =
          Blas.index_of_tree (Blas_datagen.Protein.generate ~entries:40 ())
        in
        Test_util.check_bool "identical" true (round_trips storage) );
    ( "round trip preserves mixed content positions",
      fun () ->
        let storage = Blas.index "<a>one<b>x</b>two<c/>three</a>" in
        Test_util.with_db_copy storage (fun loaded ->
            Test_util.check_bool "identical" true (same_storage storage loaded);
            (* The shifted-position trap: b starts at 3 (after <a> and the
               text unit), which naive re-labeling of a rebuilt tree would
               get wrong. *)
            match Blas.node_at loaded 3 with
            | Some node -> Test_util.check_string "tag" "b" node.Blas_xpath.Doc.tag
            | None -> Alcotest.fail "expected node at 3") );
    ( "queries agree after a round trip",
      fun () ->
        let storage =
          Blas.index_of_tree (Blas_datagen.Auction.generate ~scale:5 ())
        in
        Test_util.with_db_copy storage (fun loaded ->
            List.iter
              (fun qs ->
                let q = Blas.query qs in
                Alcotest.(check (list int))
                  qs
                  (Blas.answers storage ~engine:Blas.Rdbms ~translator:Blas.Pushup q)
                  (Blas.answers loaded ~engine:Blas.Twig ~translator:Blas.Unfold q))
              [
                "//category/description/parlist/listitem";
                "/site/regions//item/description";
                "/site/regions/asia/item[shipping]/description";
              ]) );
    ( "save/load through a file",
      fun () ->
        (* The loader every entry point uses recognises the saved file. *)
        let storage = Blas.index "<r><a>x</a><b/></r>" in
        Test_util.with_temp_db (fun path ->
            Database.create ~path storage;
            match Blas.Loader.load path with
            | Ok loaded ->
              Fun.protect
                ~finally:(fun () -> Blas.Storage.close loaded)
                (fun () ->
                  Test_util.check_bool "disk-backed" true
                    (Blas.Storage.disk loaded <> None);
                  Test_util.check_bool "identical" true
                    (same_storage storage loaded))
            | Error msg -> Alcotest.fail msg) );
    ( "malformed inputs are rejected",
      fun () ->
        Test_util.with_temp_db (fun path ->
            let bad label contents =
              Out_channel.with_open_bin path (fun oc ->
                  output_string oc contents);
              Test_util.check_bool label true (rejected path)
            in
            bad "empty" "";
            bad "garbage" "not an index";
            bad "bare magic" "BLASDB1\n";
            let page_size = 4096 in
            Database.create ~page_size ~path (Blas.index "<r><a>x</a><b>y</b></r>");
            let image = In_channel.with_open_bin path In_channel.input_all in
            let n = String.length image in
            (* Truncate a valid image at several points. *)
            List.iter
              (fun k ->
                bad (Printf.sprintf "truncated by %d" k) (String.sub image 0 (n - k)))
              [ 1; 3; 7; n / 2 ];
            (* Flip the first payload byte (past the 8-byte frame header)
               of every page after the superblock. *)
            for p = 1 to (n / page_size) - 1 do
              let b = Bytes.of_string image in
              let off = (p * page_size) + 8 in
              Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
              bad (Printf.sprintf "flipped page %d" p) (Bytes.to_string b)
            done;
            (* Rows that do not nest into one document. *)
            let raises rows =
              match Database.rebuild_doc rows with
              | exception Database.Corrupt _ -> true
              | _ -> false
            in
            Test_util.check_bool "no rows" true (raises []);
            Test_util.check_bool "two roots" true
              (raises [ ("a", 1, 2, 1, None); ("b", 3, 4, 1, None) ]);
            Test_util.check_bool "level skips" true
              (raises [ ("a", 1, 4, 1, None); ("b", 2, 3, 3, None) ])) );
  ]

let property =
  Test_util.qtest ~count:150 "round trip on random documents" Test_util.doc_gen
    (fun tree -> round_trips (Blas.index_of_tree tree))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests @ [ property ]
