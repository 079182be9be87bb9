(** The paper's deterministic currencies over base-scale data, one
    canonical line per (query, translator, engine) cell.

    Documents: Shakespeare 2 plays, Protein 160 entries, Auction scale
    16, generator seed 1 (the perfbench base scale).  Queries: Figure
    10's QS1–QA3 on their own documents plus the XMark skeletons on
    Auction.  Each cell runs on a cold buffer pool with the query cache
    off and prints

    {v QS1 pushup rdbms djoins=.. visited=.. inter=.. eq=.. range=.. scans=.. pages=.. plan=.. v}

    [eq]/[range]/[scans] is the selection profile of the SQL plan that
    ran ([-] on the twig engine, which runs no SQL); [pages] is the
    cold page reads; [plan] is the [auto2] pick ([-] for fixed
    translators).  A cell run through EXPLAIN ANALYZE prints the same
    line: it is the same pipeline with a collector attached.  [pages] is the only column that depends on the page
    layout and pool size, so it is the one {!strip_pages} drops. *)

let docs () =
  [
    ( Blas_datagen.Shakespeare.generate ~seed:1 ~plays:2 (),
      [
        ("QS1", "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE");
        ("QS2", "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR");
        ("QS3", "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public place.\"]//LINE");
      ] );
    ( Blas_datagen.Protein.generate ~seed:1 ~entries:160 (),
      [
        ("QP1", "/ProteinDatabase/ProteinEntry/protein/name");
        ("QP2", "/ProteinDatabase/ProteinEntry//authors/author = \"Daniel, M.\"");
        ("QP3", "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name");
      ] );
    ( Blas_datagen.Auction.generate ~seed:1 ~scale:16 (),
      [
        ("QA1", "//category/description/parlist/listitem");
        ("QA2", "/site/regions//item/description");
        ("QA3", "/site/regions/asia/item[shipping]/description");
        ("Q1", "/site/people/person/name");
        ("Q2", "/site/open_auctions/open_auction/bidder/increase");
        ("Q4", "/site/open_auctions/open_auction[bidder/personref]/reserve");
        ("Q5", "/site/closed_auctions/closed_auction/price");
        ("Q6", "/site/regions//item");
      ] );
  ]

let translators = [ Blas.D_labeling; Blas.Split; Blas.Pushup; Blas.Unfold; Blas.Auto2 ]

let engines = [ Blas.Rdbms; Blas.Twig ]

let cell ~analyze storage id query translator engine =
  Blas.Storage.cold_cache storage;
  let r =
    if analyze then
      fst (Blas.run_analyze ~cache:false storage ~engine ~translator query)
    else Blas.run ~cache:false storage ~engine ~translator query
  in
  let c = r.Blas.counters in
  let profile =
    match
      Option.map
        (Blas_rel.Sql_compile.compile ~catalog:(Blas.Storage.catalog storage))
        r.Blas.sql
    with
    | Some plan ->
      let p = Blas_rel.Algebra.selection_profile plan in
      Printf.sprintf "eq=%d range=%d scans=%d" p.Blas_rel.Algebra.equality
        p.range p.scans
    | None -> "eq=- range=- scans=-"
  in
  Printf.sprintf "%s %s %s djoins=%d visited=%d inter=%d %s pages=%d plan=%s" id
    (Blas.translator_name translator) (Blas.engine_name engine)
    c.Blas_rel.Counters.djoins r.Blas.visited c.intermediate profile
    r.Blas.page_reads
    (match r.Blas.choice with Some ch -> Blas.Optimizer.label ch | None -> "-")

(** Every cell's line, in a fixed order.  Storages come from
    {!Blas.index_of_tree}, so the disk and compact test modes apply.
    With [~analyze:true] each cell runs as EXPLAIN ANALYZE, which must
    print the same line. *)
let lines ?(analyze = false) () =
  List.concat_map
    (fun (tree, queries) ->
      let storage = Blas.index_of_tree tree in
      let out =
        List.concat_map
          (fun (id, q) ->
            let query = Blas.query q in
            List.concat_map
              (fun translator ->
                List.map (cell ~analyze storage id query translator) engines)
              translators)
          queries
      in
      Blas.Storage.close storage;
      out)
    (docs ())

(** The golden file for the active codec: [currencies.v2.txt] when
    BLAS_TEST_COMPACT forces the compact codec, else [currencies.txt]. *)
let file_name () =
  match Blas_rel.Codec.default_format with
  | Blas_rel.Codec.V1 -> "currencies.txt"
  | Blas_rel.Codec.V2 -> "currencies.v2.txt"

(** [line] without its [pages=] field. *)
let strip_pages line =
  String.split_on_char ' ' line
  |> List.filter (fun f -> not (String.starts_with ~prefix:"pages=" f))
  |> String.concat " "
