(** Multi-document collections.

    The paper notes (Section 3) that the scheme "can be easily extended
    to multiple documents by introducing document id information into
    the labeling scheme."  A relation clustered by {docid, plabel,
    start} is exactly a per-document partition of SP — structural joins
    and P-label selections never match across documents — so the
    collection stores one {!Storage} partition per document and fans
    queries out, which is observationally equivalent to the docid
    column while keeping every single-document component unchanged.

    Documents are indexed on addition; names are unique. *)

type t = { docs : (string * Storage.t) list }  (** in insertion order *)

type answer = { doc : string; start : int }

let empty = { docs = [] }

(** [add t ~name tree] indexes [tree] under [name].
    @raise Invalid_argument on a duplicate name. *)
let add t ~name tree =
  if List.mem_assoc name t.docs then
    invalid_arg (Printf.sprintf "Collection.add: duplicate document %s" name);
  { docs = t.docs @ [ (name, Storage.of_tree tree) ] }

(** [of_documents docs] indexes a batch of named documents. *)
let of_documents docs =
  List.fold_left (fun t (name, tree) -> add t ~name tree) empty docs

let names t = List.map fst t.docs

let storage t name = List.assoc_opt name t.docs

let document_count t = List.length t.docs

(** Total element nodes across the collection. *)
let node_count t =
  List.fold_left (fun acc (_, s) -> acc + Storage.node_count s) 0 t.docs

(** [set_cache_enabled t on] flips the query cache of every document's
    storage (each partition has its own cache, so per-document caching
    stays domain-safe under a concurrent {!run}). *)
let set_cache_enabled t on =
  List.iter (fun (_, s) -> Storage.set_cache_enabled s on) t.docs

(** Summed cache statistics across the collection's partitions. *)
let cache_stats t =
  List.fold_left
    (fun acc (_, s) ->
      let st = Qcache.stats (Storage.cache s) in
      {
        Qcache.results = Blas_cache.Stats.sum acc.Qcache.results st.Qcache.results;
        streams = Blas_cache.Stats.sum acc.Qcache.streams st.Qcache.streams;
      })
    {
      Qcache.results = Blas_cache.Stats.zero;
      streams = Blas_cache.Stats.zero;
    }
    t.docs

(** [run ?pool t ~engine ~translator query] evaluates [query] on every
    document; per-document reports come back in insertion order.  With a
    multi-domain [pool], documents evaluate concurrently (they share no
    storage, so this parallelism is embarrassingly safe). *)
let run ?pool ?cache t ~engine ~translator query =
  let run_one (name, s) =
    (name, Exec.run ?pool ?cache s ~engine ~translator query)
  in
  match pool with
  | Some p when Blas_par.Pool.size p > 1 && List.length t.docs > 1 ->
    Blas_par.Pool.map_list p run_one t.docs
  | _ -> List.map run_one t.docs

(** [answers t ~engine ~translator query] — the merged answer list,
    document order within each document, documents in insertion
    order. *)
let answers t ~engine ~translator query =
  List.concat_map
    (fun (doc, (report : Exec.report)) ->
      List.map (fun start -> { doc; start }) report.Exec.starts)
    (run t ~engine ~translator query)

(** Summed visited elements across documents (for cost reporting). *)
let visited t ~engine ~translator query =
  List.fold_left
    (fun acc (_, (r : Exec.report)) -> acc + r.Exec.visited)
    0
    (run t ~engine ~translator query)

(** The union-of-documents oracle. *)
let oracle t query =
  List.concat_map
    (fun (doc, s) ->
      List.map (fun start -> { doc; start }) (Exec.oracle s query))
    t.docs
