(** The ledger's documents and the query and edit shapes over them.

    The documents are the repo's three data-set analogues at the
    {e base} scale that the replication experiments already use
    (Shakespeare 2 plays, Protein 160 entries, Auction scale 16), made
    with fixed generator seeds so every run indexes the same bytes.
    The base scale is forced by the v2 bulk load: its page packer
    re-encodes the whole remaining table for every page it fills
    (quadratic in the table), so the full-scale analogues take about
    270 s to write as v2 files on a 2-vCPU VM, past any per-run budget.
    At base scale the v2 writes still dominate [local-cold]'s
    [setup_s], which is where a fix to the packer would show. *)

module Doc = Blas_xpath.Doc

type t = {
  name : string;
  xml : string;  (** the XML text the setup indexes *)
  fig10 : string list;  (** the paper's Figure 10 queries on this document *)
  xmark : string list;  (** XMark skeletons (auction only) *)
  values : string array;
      (** distinct text values of the edit targets — the constants of
          the value-predicate queries and the new texts of RETEXT *)
  value_query : string -> string;  (** value-predicate template *)
  retext_target : Doc.node -> bool;
  insert_parent : Doc.node -> bool;
  insert_xml : string -> string;  (** the subtree an INSERT adds, by marker *)
  inserted : string -> Doc.node -> bool;
      (** whether a node is the root of the subtree inserted under a
          marker *)
}

(* Every inserted subtree carries a text that no generated value has,
   so the stream can find it again however the labels moved since. *)
let marker_prefix = "perfbench-mark-"

let is_marker s = String.starts_with ~prefix:marker_prefix s

let parent_tag (n : Doc.node) =
  match List.rev n.source_path with _ :: p :: _ -> p | _ -> ""

let has_data n = match n.Doc.data with Some d -> not (is_marker d) | None -> false

let values_of tree pred =
  let doc = Doc.of_tree tree in
  List.filter_map (fun n -> if pred n then n.Doc.data else None) doc.Doc.all
  |> List.sort_uniq compare |> Array.of_list

let shakespeare () =
  let tree = Blas_datagen.Shakespeare.generate ~seed:1 ~plays:2 () in
  let retext_target n = n.Doc.tag = "SPEAKER" && has_data n in
  {
    name = "shakespeare";
    xml = Blas_xml.Printer.compact tree;
    fig10 =
      [
        "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE";
        "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR";
        "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public place.\"]//LINE";
      ];
    xmark = [];
    values = values_of tree retext_target;
    value_query = Printf.sprintf "/PLAYS/PLAY/ACT/SCENE/SPEECH[SPEAKER = %S]/LINE";
    retext_target;
    insert_parent = (fun n -> n.Doc.tag = "SPEECH");
    insert_xml = Printf.sprintf "<LINE>%s</LINE>";
    inserted = (fun m n -> n.Doc.tag = "LINE" && n.Doc.data = Some m);
  }

let protein () =
  let tree = Blas_datagen.Protein.generate ~seed:1 ~entries:160 () in
  let retext_target n = n.Doc.tag = "author" && has_data n in
  {
    name = "protein";
    xml = Blas_xml.Printer.compact tree;
    fig10 =
      [
        "/ProteinDatabase/ProteinEntry/protein/name";
        "/ProteinDatabase/ProteinEntry//authors/author = \"Daniel, M.\"";
        "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name";
      ];
    xmark = [];
    values = values_of tree retext_target;
    value_query =
      Printf.sprintf
        "/ProteinDatabase/ProteinEntry[reference/refinfo/authors/author = %S]/protein/name";
    retext_target;
    insert_parent = (fun n -> n.Doc.tag = "authors");
    insert_xml = Printf.sprintf "<author>%s</author>";
    inserted = (fun m n -> n.Doc.tag = "author" && n.Doc.data = Some m);
  }

let xmark_skeletons =
  [
    "/site/people/person/name";
    "/site/open_auctions/open_auction/bidder/increase";
    "/site/open_auctions/open_auction[bidder/personref]/reserve";
    "/site/closed_auctions/closed_auction/price";
    "/site/regions//item";
  ]

let auction_fig10 =
  [
    "//category/description/parlist/listitem";
    "/site/regions//item/description";
    "/site/regions/asia/item[shipping]/description";
  ]

let auction () =
  let tree = Blas_datagen.Auction.generate ~seed:1 ~scale:16 () in
  let retext_target n =
    n.Doc.tag = "name" && parent_tag n = "person" && has_data n
  in
  {
    name = "auction";
    xml = Blas_xml.Printer.compact tree;
    fig10 = auction_fig10;
    xmark = xmark_skeletons;
    values = values_of tree retext_target;
    value_query = Printf.sprintf "/site/people/person[name = %S]/emailaddress";
    retext_target;
    insert_parent = (fun n -> n.Doc.tag = "open_auction");
    insert_xml =
      Printf.sprintf "<bidder><date>%s</date><increase>1.00</increase></bidder>";
    inserted =
      (fun m n ->
        n.Doc.tag = "bidder"
        && List.exists
             (fun (c : Doc.node) -> c.Doc.tag = "date" && c.Doc.data = Some m)
             n.Doc.children);
  }

(** The three documents every workload indexes, in load order. *)
let all () = [ shakespeare (); protein (); auction () ]

(** [routed-mixed]'s extra read-only document: a second auction (its
    own generator seed), range-partitioned into [part_chunks] pieces
    whose placement by name hash spreads them over both shards. *)
let part_name = "auction-part"

let part_chunks = 4

let part_tree () = Blas_datagen.Auction.generate ~seed:2 ~scale:16 ()

let part_queries = auction_fig10 @ xmark_skeletons
