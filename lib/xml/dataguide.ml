(** A DataGuide: the trie of all source paths occurring in a document,
    each counted and given its P-label.

    The Unfold translator (paper Section 4.1.3) needs schema information
    to enumerate the simple paths matched by [p//q].  A DataGuide built
    from the instance is a sound and complete substitute for a DTD for
    that purpose: it contains exactly the simple paths that have a
    non-empty answer on the document, so unfolding against it returns the
    same results while generating no useless subqueries.

    P-labels.  Algorithm 1's nested shares order the paper's labels by
    one rule: the lexicographic order of the {e reversed} source path,
    the "/" anchor first and tags in sorted order, so a path comes
    before the paths that extend it towards the root.  The guide keeps
    its paths in that order with a native int label each, strictly
    increasing and gapped; a suffix path [//t1/.../tk] matches exactly
    the paths whose reversed form starts with [tk ... t1], a run of
    consecutive paths, so its interval and its population are two
    binary searches away (Proposition 3.2 by construction). *)

module String_map = Map.Make (String)

(* [count]: the nodes whose source path ends here (0 at the virtual root
   above the document root); [label]: that path's P-label. *)
type node = { count : int; label : int; children : node String_map.t }

type t = {
  root : node;
  rpaths : string list array;
      (* every source path, leaf tag first, in reversed-path order *)
  labels : int array;  (* labels.(i): the P-label of rpaths.(i), increasing *)
  sums : int array;  (* sums.(i): the nodes on rpaths.(0 .. i-1) *)
  depth : int;  (* the longest source path *)
}

(** Label distance of a fresh labeling: path [i] of the order gets
    [(i + 1) * spacing]. *)
let spacing = 1 lsl 20

(* The smallest spacing a respread may leave: a window grows until its
   paths, the new one included, fit this far apart. *)
let min_spread = spacing lsr 6

let leaf = { count = 0; label = 0; children = String_map.empty }

let empty = { root = leaf; rpaths = [||]; labels = [||]; sums = [| 0 |]; depth = 0 }

(* [update node path f] replaces the node at [path] under [node] by
   [f] of it ([None] when absent; [f] returning [None] removes it),
   creating unlabeled, uncounted nodes on the way down. *)
let rec update node path f =
  match path with
  | [] -> assert false
  | [ tag ] -> (
    match f (String_map.find_opt tag node.children) with
    | Some c -> { node with children = String_map.add tag c node.children }
    | None -> { node with children = String_map.remove tag node.children })
  | tag :: rest ->
    let child = Option.value ~default:leaf (String_map.find_opt tag node.children) in
    { node with children = String_map.add tag (update child rest f) node.children }

let find_node guide path =
  let rec go node = function
    | [] -> Some node
    | tag :: rest -> (
      match String_map.find_opt tag node.children with
      | None -> None
      | Some c -> go c rest)
  in
  go guide.root path

type pos = node

let top guide = guide.root

let find_child pos tag = String_map.find_opt tag pos.children

let fold_children f pos acc = String_map.fold f pos.children acc

(* Every counted trie node as (path, node), root tag first, in sorted
   path order (a path before its extensions). *)
let nodes root =
  let rec go prefix node acc =
    String_map.fold
      (fun tag child acc ->
        let path = tag :: prefix in
        let acc = if child.count > 0 then (List.rev path, child) :: acc else acc in
        go path child acc)
      node.children acc
  in
  List.rev (go [] root [])

let path_counts guide = List.map (fun (p, n) -> (p, n.count)) (nodes guide.root)

let all_paths guide = List.map fst (nodes guide.root)

let entries guide = List.map (fun (p, n) -> (p, n.count, n.label)) (nodes guide.root)

let iter_order f guide =
  Array.iteri
    (fun i rp -> f rp (guide.sums.(i + 1) - guide.sums.(i)) guide.labels.(i))
    guide.rpaths

(* [edit] builds new path and label arrays exactly when it adds or
   drops a path or moves a label, and never writes into a guide's
   arrays after building it. *)
let same_paths a b = a.rpaths == b.rpaths && a.labels == b.labels

(* Reversed-path order: leaf tag first, a path before its extensions. *)
let compare_rpath = List.compare String.compare

(* The order arrays of a trie whose labels are already set. *)
let index root =
  let es =
    List.map (fun (p, n) -> (List.rev p, n)) (nodes root)
    |> List.sort (fun (a, _) (b, _) -> compare_rpath a b)
    |> Array.of_list
  in
  let n = Array.length es in
  let sums = Array.make (n + 1) 0 in
  Array.iteri (fun i (_, e) -> sums.(i + 1) <- sums.(i) + e.count) es;
  let labels = Array.map (fun (_, e) -> e.label) es in
  for i = 1 to n - 1 do
    if labels.(i) <= labels.(i - 1) then
      invalid_arg "Dataguide: labels do not increase in reversed-path order"
  done;
  {
    root;
    rpaths = Array.map fst es;
    labels;
    sums;
    depth = Array.fold_left (fun d (rp, _) -> max d (List.length rp)) 0 es;
  }

(* Counts [n] more nodes on [path], leaving labels alone. *)
let bump root path n =
  update root path (fun c ->
      let c = Option.value ~default:leaf c in
      Some { c with count = c.count + n })

let of_entries es =
  index
    (List.fold_left
       (fun root (path, count, label) ->
         update root path (fun c ->
             Some { (Option.value ~default:leaf c) with count; label }))
       leaf es)

(* A fresh labeling: [spacing] apart in reversed-path order. *)
let label_fresh root =
  nodes root
  |> List.map (fun (p, n) -> (List.rev p, (p, n.count)))
  |> List.sort (fun (a, _) (b, _) -> compare_rpath a b)
  |> List.mapi (fun i (_, (p, count)) -> (p, count, (i + 1) * spacing))
  |> of_entries

let of_path_counts pcs =
  label_fresh (List.fold_left (fun root (path, n) -> bump root path n) leaf pcs)

(** [of_tree tree] builds the DataGuide of all source paths in [tree]. *)
let of_tree tree =
  label_fresh (Dom.fold_elements (fun root path _ -> bump root path 1) leaf tree)

let mem_path guide path =
  match find_node guide path with Some n -> path = [] || n.count > 0 | None -> false

let count guide path =
  match find_node guide path with Some n -> n.count | None -> 0

let label guide path =
  match find_node guide path with
  | Some n when path <> [] && n.count > 0 -> Some n.label
  | _ -> None

let path_count guide = Array.length guide.rpaths

let max_depth guide = guide.depth

let min_gap guide =
  let gap = ref max_int and prev = ref 0 in
  Array.iter
    (fun l ->
      gap := min !gap (l - !prev);
      prev := l)
    guide.labels;
  !gap

(** [distinct_tags guide] is the sorted list of tags occurring anywhere. *)
let distinct_tags guide =
  let module S = Set.Make (String) in
  let rec go node acc =
    String_map.fold (fun tag child acc -> go child (S.add tag acc)) node.children acc
  in
  S.elements (go guide.root S.empty)

(* ------------------------------------------------------------------ *)
(* Searching the reversed-path order                                   *)

(* The first index in [0, n) whose entry is not below the target ([n]
   when none); [below i] must be monotone (true, then false). *)
let search n below =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below mid then lo := mid + 1 else hi := mid
  done;
  !lo

(* [want] against the first [List.length want] tags of [have]: the
   paths [want] prefixes compare equal; a proper prefix of [want]
   sorts before them. *)
let rec prefix_cmp want have =
  match (want, have) with
  | [], _ -> 0
  | _ :: _, [] -> 1
  | w :: want, h :: have ->
    let c = String.compare w h in
    if c <> 0 then c else prefix_cmp want have

(* The run [lo, hi) of paths ending in [rtags] (leaf tag first). *)
let run guide rtags =
  let n = Array.length guide.rpaths in
  let lo = search n (fun i -> prefix_cmp rtags guide.rpaths.(i) > 0) in
  let hi = search n (fun i -> prefix_cmp rtags guide.rpaths.(i) >= 0) in
  (lo, hi)

(* The free labels around position [i] of the order: every label lies
   at or below [below i] or at or above [above i].  Past the last path
   the order is open, two spacings wide. *)
let below labels i = if i = 0 then 0 else labels.(i - 1)

let above labels i =
  if i < Array.length labels then labels.(i)
  else below labels i + (2 * spacing)

let suffix_interval guide ~absolute ~tags =
  let occurs tag =
    let lo, hi = run guide [ tag ] in
    lo < hi
  in
  if List.length tags > guide.depth || not (List.for_all occurs tags) then None
  else
    let rtags = List.rev tags in
    let lo, hi = run guide rtags in
    let l = guide.labels in
    if absolute then
      (* The path itself sorts first in its run. *)
      let i = lo in
      if i < hi && List.length guide.rpaths.(i) = List.length rtags then
        Some (l.(i), l.(i))
      else
        (* Absent: a point inside the gap where it would sort.  Every
           gap holds at least one free label. *)
        let a = below l i and b = above l i in
        let m = a + ((b - a) / 2) in
        Some (m, m)
    else if lo < hi then Some (l.(lo), l.(hi - 1))
    else Some (below l lo + 1, above l lo - 1)

let suffix_count guide ~absolute ~tags =
  if absolute then count guide tags
  else
    let lo, hi = run guide (List.rev tags) in
    guide.sums.(hi) - guide.sums.(lo)

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)

(* Labels for a path entering the order at position [i]: [(lo,
   window)], where [window] labels positions [lo ..] of the order with
   the new path in it.  A gap with room gives its midpoint, keeping a
   free label on either side; otherwise the smallest window of
   neighbours whose outer labels leave [min_spread] per path is
   respread evenly, growing right and left in turn (past the last path
   the order is open). *)
let place labels i =
  let n = Array.length labels in
  let a = below labels i and b = above labels i in
  if b - a >= 4 then (i, [| a + ((b - a) / 2) |])
  else
    let rec grow lo hi right =
      let k = hi - lo and a = below labels lo in
      if hi = n then (lo, Array.init (k + 1) (fun j -> a + (spacing * (j + 1))))
      else
        let g = (labels.(hi) - a) / (k + 2) in
        if g >= min_spread then (lo, Array.init (k + 1) (fun j -> a + (g * (j + 1))))
        else if right || lo = 0 then grow lo (hi + 1) (not right)
        else grow (lo - 1) hi (not right)
    in
    grow i i true

(* Counts one node fewer on [path].  A path ends where its last node
   goes: with no node left on it, no longer path can have one either,
   so its subtrie is empty too. *)
let rec drop node = function
  | [] -> { node with count = node.count - 1 }
  | tag :: rest ->
    let c = drop (String_map.find tag node.children) rest in
    let children =
      if c.count = 0 && String_map.is_empty c.children then
        String_map.remove tag node.children
      else String_map.add tag c node.children
    in
    { node with children }

let insert_at a i x =
  Array.init (Array.length a + 1) (fun j ->
      if j < i then a.(j) else if j = i then x else a.(j - 1))

let remove_at a i =
  Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let edit guide ~add ~remove =
  if add = [] && remove = [] then guide
  else begin
    let root = ref guide.root and rpaths = ref guide.rpaths in
    let labels = ref guide.labels in
    let counts =
      ref (Array.init (Array.length guide.rpaths) (fun i -> guide.sums.(i + 1) - guide.sums.(i)))
    in
    let find rp =
      search (Array.length !rpaths) (fun i -> compare_rpath !rpaths.(i) rp < 0)
    in
    let present i rp = i < Array.length !rpaths && compare_rpath !rpaths.(i) rp = 0 in
    let set_label rp l =
      root := update !root (List.rev rp) (fun c -> Some { (Option.get c) with label = l })
    in
    List.iter
      (fun path ->
        let rp = List.rev path in
        let i = find rp in
        if present i rp then !counts.(i) <- !counts.(i) + 1
        else begin
          let lo, window = place !labels i in
          rpaths := insert_at !rpaths i rp;
          labels := insert_at !labels i 0;
          counts := insert_at !counts i 0;
          !counts.(i) <- 1;
          root :=
            update !root path (fun c ->
                Some { (Option.value ~default:leaf c) with count = 0 });
          Array.iteri
            (fun j l ->
              !labels.(lo + j) <- l;
              set_label !rpaths.(lo + j) l)
            window
        end;
        root := bump !root path 1)
      add;
    List.iter
      (fun path ->
        let rp = List.rev path in
        let i = find rp in
        if not (present i rp) then invalid_arg "Dataguide.edit: path not present";
        !counts.(i) <- !counts.(i) - 1;
        root := drop !root path;
        if !counts.(i) = 0 then begin
          rpaths := remove_at !rpaths i;
          labels := remove_at !labels i;
          counts := remove_at !counts i
        end)
      remove;
    let n = Array.length !rpaths in
    let sums = Array.make (n + 1) 0 in
    Array.iteri (fun i c -> sums.(i + 1) <- sums.(i) + c) !counts;
    let depth =
      if !rpaths == guide.rpaths then guide.depth
      else Array.fold_left (fun d rp -> max d (List.length rp)) 0 !rpaths
    in
    { root = !root; rpaths = !rpaths; labels = !labels; sums; depth }
  end

let relabeled ~before ~after =
  let acc = ref [] and j = ref 0 in
  Array.iteri
    (fun i rp ->
      while !j < Array.length after.rpaths && compare_rpath after.rpaths.(!j) rp < 0 do
        incr j
      done;
      if
        !j < Array.length after.rpaths
        && compare_rpath after.rpaths.(!j) rp = 0
        && after.labels.(!j) <> before.labels.(i)
      then acc := (before.labels.(i), after.labels.(!j)) :: !acc)
    before.rpaths;
  List.rev !acc
