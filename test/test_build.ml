(** Tests for the index build: parse events go straight into the label
    columns ({!Blas_update.Columns.of_events}), and SP, SD and the
    counted guide come from them.  The references are the labeled
    document model ({!Blas_xpath.Doc.of_tree} over {!Blas_xml.Dom}) and
    the tables the build made from it ({!Layout_reference}). *)

module Columns = Blas_update.Columns
module Dataguide = Blas_xml.Dataguide
module Types = Blas_xml.Types
module Doc = Blas_xpath.Doc
module Codec = Blas_rel.Codec

let check_bool = Test_util.check_bool

let qtest = Test_util.qtest

let of_xml xml = Columns.of_events (fun f -> Blas_xml.Sax.parse ~on_event:f xml)

let of_tree = Test_util.columns_of_tree

let of_sd_of (cols, guide) =
  let store = Blas_rel.Page_store.memory ~page_size:256 ~codec:Codec.V1 () in
  let _, sd = Columns.tables store ~guide cols in
  Columns.of_sd (Blas_rel.Table.scan sd (Blas_rel.Counters.create ()))

(* Same rows and the same guide: paths, counts and P-labels. *)
let same (c1, g1) (c2, g2) =
  Columns.equal c1 c2 && Dataguide.entries g1 = Dataguide.entries g2

(* The model's rows and guide, in the columns' terms. *)
let of_model = Test_util.columns_of_doc

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let tags = [| "a"; "b"; "c" |]

(* Text units: words, whitespace only, and ones that need escaping. *)
let text_gen =
  QCheck2.Gen.oneofl [ "x"; "y"; "hi there"; " "; "\n  "; "a<b&c"; "\"q\"" ]

(* Random trees with attributes (leading, distinct names), adjacent
   and mixed text units, whitespace-only text, and deep or wide
   shapes. *)
let tree_gen =
  let open QCheck2.Gen in
  let attrs_gen =
    let* names = list_size (int_range 0 2) (oneofl [ "id"; "k"; "lang" ]) in
    let names = List.sort_uniq compare names in
    flatten_l
      (List.map
         (fun n -> map (fun v -> Types.Element ("@" ^ n, [ Types.Content v ])) text_gen)
         names)
  in
  let shape =
    (* (max depth, max fanout): deep and narrow, or shallow and wide *)
    oneofl [ (12, 2); (4, 6); (2, 30) ]
  in
  let* depth, fanout = shape in
  let rec node d =
    let* tag = oneofa tags in
    let* attrs = attrs_gen in
    let* kids =
      if d >= depth then list_size (int_range 0 2) (map (fun s -> Types.Content s) text_gen)
      else
        list_size (int_range 0 fanout)
          (frequency
             [
               (2, map (fun s -> Types.Content s) text_gen);
               (3, node (d + 1));
             ])
    in
    return (Types.Element (tag, attrs @ kids))
  in
  node 1

(* ------------------------------------------------------------------ *)
(* The builder against the model                                       *)

(* Driven by a tree's events, the builder gives the rows and guide of
   the tree's labeled model; driven by the printed XML's parse events,
   those of the parsed tree's model, and the same columns as when
   driven by that tree's events; and the columns rebuilt from its own
   SD equal it. *)
let builder_law tree =
  let xml = Blas_xml.Printer.compact tree in
  let parsed = Blas_xml.Dom.parse xml in
  let built = of_tree tree and from_xml = of_xml xml in
  same built (of_model (Doc.of_tree tree))
  && same from_xml (of_model (Doc.of_tree parsed))
  && same from_xml (of_tree parsed)
  && same (of_sd_of built) built
  && same (of_sd_of from_xml) from_xml

(* SP and SD from the columns equal, row for row, the clustered rows
   the build took from the model (so the load sorts nothing), and, page
   for page under both codecs at a small page size, its tables. *)
let tables_law (format, tree) =
  let store () = Blas_rel.Page_store.memory ~page_size:256 ~codec:format () in
  let cols, guide = of_tree tree and doc = Doc.of_tree tree in
  let same_rows a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> Blas_rel.Tuple.compare x y = 0) a b
  in
  let ref_sp_rows, ref_sd_rows = Layout_reference.clustered_rows doc in
  let sp, sd = Columns.tables (store ()) ~guide cols in
  let ref_sp, ref_sd = Layout_reference.tables (store ()) doc in
  same_rows (Columns.sp_rows guide cols) ref_sp_rows
  && same_rows (Columns.sd_rows cols) ref_sd_rows
  && Test_codec.same_table sp ref_sp
  && Test_codec.same_table sd ref_sd

(* A storage's own build: the tables the model gives, statistics
   collected over the model's nodes, the columns resident. *)
let storage_law tree =
  let storage = Blas.Storage.of_tree ~codec:Codec.V1 tree in
  let doc = Doc.of_tree tree in
  let store = Blas_rel.Page_store.memory ~codec:Codec.V1 () in
  let ref_sp, ref_sd = Layout_reference.tables store doc in
  let stats =
    Blas_optimizer.Stats.collect (fun f ->
        List.iter (fun (n : Doc.node) -> Option.iter (f n.tag) n.data) doc.all)
  in
  Blas.Storage.columns_resident storage
  && Test_codec.same_table storage.Blas.Storage.sp ref_sp
  && Test_codec.same_table storage.Blas.Storage.sd ref_sd
  && Dataguide.entries (Blas.Storage.guide storage) = Dataguide.entries doc.guide
  && Option.fold ~none:false ~some:(Blas_optimizer.Stats.equal stats)
       (Blas.Storage.ostats storage)

(* ------------------------------------------------------------------ *)
(* Malformed input                                                     *)

let outcome f = match f () with _ -> "ok" | exception e -> Printexc.to_string e

(* XML text: the build raises what parsing it into a tree raises. *)
let same_failure xml =
  outcome (fun () -> Blas.Storage.of_string xml)
  = outcome (fun () -> Doc.of_tree (Blas_xml.Dom.parse xml))

let test_malformed () =
  List.iter
    (fun (what, xml) ->
      check_bool (what ^ " raises") true (outcome (fun () -> Blas_xml.Dom.parse xml) <> "ok");
      check_bool (what ^ ": the same exception") true (same_failure xml))
    [
      ("empty", "");
      ("no root", "<?xml version=\"1.0\"?><!-- nothing -->");
      ("two roots", "<a/><b>x</b>");
      ("text only", "just text");
      ("unclosed", "<a><b></b>");
      ("mismatched", "<a><b></a></b>");
      ("two roots, then a syntax error", "<a/><b/><c");
    ];
  Alcotest.check_raises "a text root" (Invalid_argument "Doc.of_tree: root must be an element")
    (fun () -> ignore (Blas.Storage.of_tree (Types.Content "x")))

(* Truncated XML fails (or not) exactly as a parse into a tree does. *)
let truncation_law (tree, cut) =
  let xml = Blas_xml.Printer.compact tree in
  same_failure (String.sub xml 0 (cut mod (String.length xml + 1)))

(* Arbitrary event streams: the builder raises {!Blas_xml.Dom.of_events}'
   failures (stray end, unclosed, no root, two roots) or gives the rows
   of the tree it builds. *)
let events_gen =
  let open QCheck2.Gen in
  list_size (int_range 0 12)
    (frequency
       [
         ( 3,
           let* tag = oneofa tags in
           let* attrs = list_size (int_range 0 1) (pair (return "k") text_gen) in
           return (Types.Start_element (tag, attrs)) );
         (3, map (fun tag -> Types.End_element tag) (oneofa tags));
         (2, map (fun s -> Types.Text s) text_gen);
       ])

let events_law events =
  let built = outcome (fun () -> Columns.of_events (fun f -> List.iter f events)) in
  match Blas_xml.Dom.of_events events with
  | exception e -> built = Printexc.to_string e
  | tree ->
    built = "ok"
    && same (Columns.of_events (fun f -> List.iter f events)) (of_model (Doc.of_tree tree))

(* ------------------------------------------------------------------ *)
(* Resident columns                                                    *)

(* A fresh index holds its label columns, so the first edit runs over
   them and builds nothing from SD. *)
let test_columns_resident () =
  let xml = "<r><a>x</a><b><a>y</a></b></r>" in
  List.iter
    (fun (what, storage) ->
      check_bool (what ^ ": columns resident") true (Blas.Storage.columns_resident storage);
      let cols = Blas.Storage.columns storage in
      ignore (Blas.Update.replace_text storage ~start:2 (Some "z"));
      check_bool (what ^ ": the first edit ran over them") true
        (Blas.Storage.columns storage == cols))
    ([
       ("of_string", Blas.Storage.of_string xml);
       ("of_tree", Blas.Storage.of_tree (Blas_xml.Dom.parse xml));
     ]
    @
    (* [Blas.index] is a reopened database file under BLAS_TEST_DISK *)
    let s = Blas.index xml in
    if Blas.Storage.disk s = None then [ ("Blas.index", s) ]
    else (
      Blas.Storage.close s;
      []))

let suite =
  [
    qtest ~count:300 "builder equals the model from XML, tree and SD"
      tree_gen
      builder_law;
    qtest ~count:150 "builder tables equal the model's, page for page"
      QCheck2.Gen.(pair (oneofl [ Codec.V1; Codec.V2 ]) tree_gen)
      tables_law;
    qtest ~count:100 "a storage's build equals the model's" tree_gen storage_law;
    Alcotest.test_case "malformed XML raises as a parse does" `Quick test_malformed;
    qtest ~count:300 "truncated XML raises as a parse does"
      QCheck2.Gen.(pair tree_gen nat)
      truncation_law;
    qtest ~count:500 "event streams raise or build as Dom.of_events does" events_gen
      events_law;
    Alcotest.test_case "columns are resident after an index build" `Quick
      test_columns_resident;
  ]
