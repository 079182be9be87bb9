(** A DataGuide: the trie of all source paths occurring in a document.

    The Unfold translator (paper Section 4.1.3) needs schema information
    to enumerate the simple paths matched by [p//q].  A DataGuide built
    from the instance is a sound and complete substitute for a DTD for
    that purpose: it contains exactly the simple paths that have a
    non-empty answer on the document, so unfolding against it returns the
    same results while generating no useless subqueries. *)

module String_map = Map.Make (String)

(* [count]: the nodes whose source path ends here (0 at the virtual root
   above the document root). *)
type t = { count : int; children : t String_map.t }

let empty = { count = 0; children = String_map.empty }

(* [add guide path n] counts [n] more nodes on [path]. *)
let rec add guide path n =
  match path with
  | [] -> { guide with count = guide.count + n }
  | tag :: rest ->
    let child =
      match String_map.find_opt tag guide.children with
      | Some c -> c
      | None -> empty
    in
    { guide with children = String_map.add tag (add child rest n) guide.children }

let add_path guide path = add guide path 1

(* A path ends where its last node goes: with no node left on it, no
   longer path can have one either, so its subtrie is empty too. *)
let rec remove_path guide = function
  | [] ->
    if guide.count <= 0 then invalid_arg "Dataguide.remove_path: path not present";
    { guide with count = guide.count - 1 }
  | tag :: rest -> (
    match String_map.find_opt tag guide.children with
    | None -> invalid_arg "Dataguide.remove_path: path not present"
    | Some c ->
      let c = remove_path c rest in
      let children =
        if c.count = 0 && String_map.is_empty c.children then
          String_map.remove tag guide.children
        else String_map.add tag c guide.children
      in
      { guide with children })

(** [of_tree tree] builds the DataGuide of all source paths in [tree]. *)
let of_tree tree =
  Dom.fold_elements (fun g path _ -> add_path g path) empty tree

let find_child guide tag = String_map.find_opt tag guide.children

let fold_children f guide acc = String_map.fold f guide.children acc

(** [path_counts guide] enumerates every source path in the guide with
    its count, each path as a list of tags from the root: a preorder
    walk over sorted children, so the paths come out sorted. *)
let path_counts guide =
  let rec go prefix guide acc =
    String_map.fold
      (fun tag child acc ->
        let path = tag :: prefix in
        go path child ((List.rev path, child.count) :: acc))
      guide.children acc
  in
  List.rev (go [] guide [])

let all_paths guide = List.map fst (path_counts guide)

let of_path_counts pcs =
  List.fold_left (fun g (path, n) -> add g path n) empty pcs

(** [mem_path guide path] tests whether [path] (root tag first) occurs. *)
let mem_path guide path =
  let rec go guide = function
    | [] -> true
    | tag :: rest -> (
      match find_child guide tag with None -> false | Some c -> go c rest)
  in
  go guide path

(** [count guide path] — how many nodes have source path [path]. *)
let count guide path =
  let rec go guide = function
    | [] -> guide.count
    | tag :: rest -> (
      match find_child guide tag with None -> 0 | Some c -> go c rest)
  in
  go guide path

(** [suffix_count guide ~absolute ~tags] — the nodes a suffix path
    matches (paper Section 3.2: a suffix path's population is the sum
    of the source paths it matches).  An absolute path is one lookup;
    [//t1/.../tk] is one walk over the guide, summing every source path
    that ends in [tags]. *)
let suffix_count guide ~absolute ~tags =
  if absolute then count guide tags
  else
    (* both lists leaf first: does the walk's path end in [tags]? *)
    let rec ends_in want rev_path =
      match (want, rev_path) with
      | [], _ -> true
      | w :: want, t :: rev_path -> String.equal w t && ends_in want rev_path
      | _ :: _, [] -> false
    in
    let want = List.rev tags in
    let rec go rev_path guide acc =
      String_map.fold
        (fun tag child acc ->
          let rev_path = tag :: rev_path in
          let acc = if ends_in want rev_path then acc + child.count else acc in
          go rev_path child acc)
        guide.children acc
    in
    go [] guide 0

(** [max_depth guide] is the length of the longest source path. *)
let max_depth guide =
  let rec go guide =
    String_map.fold (fun _ child acc -> max acc (1 + go child)) guide.children 0
  in
  go guide

(** [distinct_tags guide] is the sorted list of tags occurring anywhere. *)
let distinct_tags guide =
  let module S = Set.Make (String) in
  let rec go guide acc =
    String_map.fold (fun tag child acc -> go child (S.add tag acc)) guide.children acc
  in
  S.elements (go guide S.empty)
