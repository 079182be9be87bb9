(** The document as flat label columns in start order: the one copy
    a storage derives from its tables, built from one scan of SD
    ({!of_sd}).  Edits run over it ({!Update_engine}), and the labeled
    document model is a view of it ({!node}).

    Row [i] is the [i]-th element node in document order.  Finding a
    node is a binary search; its subtree is the rows from [i] up to the
    first row starting after its [fin]; its parent is the nearest row
    before it one level up; the root is row 0.  A relabel rewrites
    labels in place, and an insert or a delete moves each column with
    one [memmove]: the columns are unboxed ints.  Source paths are
    interned — [path.{i}] indexes [paths] (root tag first, the key of
    the node's P-label in the guide) — and a node's text sits in
    [texts] under its row's [key], which no edit changes. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable n : int;  (** rows in use; the columns may be longer *)
  mutable start : ints;
  mutable fin : ints;
  mutable level : ints;
  mutable path : ints;
  mutable key : ints;
  texts : (int, string) Hashtbl.t;
  mutable next_key : int;
  mutable paths : string list array;
  ids : (string list, int) Hashtbl.t;  (** the inverse of [paths] *)
}

(** One node's fields, its source path spelled out. *)
type row = {
  start : int;
  fin : int;
  level : int;
  path : string list;
  data : string option;
}

let length (t : t) = t.n

let ints len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* [move a ~src ~dst len] — the [len] ints at [src] copied to [dst]. *)
let move (a : ints) ~src ~dst len =
  if len > 0 then Bigarray.Array1.(blit (sub a src len) (sub a dst len))

(* [a] with room for [len] ints, its first [used] kept. *)
let grow (a : ints) len ~used =
  if len <= Bigarray.Array1.dim a then a
  else begin
    let b = ints (max len (2 * Bigarray.Array1.dim a)) in
    Bigarray.Array1.(blit (sub a 0 used) (sub b 0 used));
    b
  end

let path_id (t : t) path =
  match Hashtbl.find_opt t.ids path with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.ids in
    if id = Array.length t.paths then
      t.paths <- Array.append t.paths (Array.make (id + 1) []);
    t.paths.(id) <- path;
    Hashtbl.add t.ids path id;
    id

(* The first row in [lo..t.n) starting at or after [start]. *)
let lower_bound (t : t) ?(lo = 0) start =
  let lo = ref lo and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.start.{mid} < start then lo := mid + 1 else hi := mid
  done;
  !lo

(** The row of the node starting at [start]. *)
let find (t : t) start =
  let i = lower_bound t start in
  if i < t.n && t.start.{i} = start then Some i else None

let row (t : t) i =
  {
    start = t.start.{i};
    fin = t.fin.{i};
    level = t.level.{i};
    path = t.paths.(t.path.{i});
    data = Hashtbl.find_opt t.texts t.key.{i};
  }

(** The first row after row [i]'s subtree. *)
let subtree_end (t : t) i = lower_bound t ~lo:(i + 1) (t.fin.{i} + 1)

(** The rows of row [i]'s element children, in document order. *)
let children (t : t) i =
  let last = subtree_end t i in
  let rec go acc j = if j >= last then List.rev acc else go (j :: acc) (subtree_end t j) in
  go [] (i + 1)

(** The row of row [i]'s parent ([i > 0]). *)
let parent (t : t) i =
  let rec go j = if t.level.{j} < t.level.{i} then j else go (j - 1) in
  go (i - 1)

let relabel (t : t) i ~start ~fin =
  t.start.{i} <- start;
  t.fin.{i} <- fin

let set_data (t : t) i = function
  | Some s -> Hashtbl.replace t.texts t.key.{i} s
  | None -> Hashtbl.remove t.texts t.key.{i}

(** [insert t rows] adds a subtree's rows, in document order, where its
    first row's start sorts. *)
let insert (t : t) rows =
  match rows with
  | [] -> ()
  | (first : row) :: _ ->
    let k = List.length rows and at = lower_bound t first.start in
    let shift a =
      let a = grow a (t.n + k) ~used:t.n in
      move a ~src:at ~dst:(at + k) (t.n - at);
      a
    in
    t.start <- shift t.start;
    t.fin <- shift t.fin;
    t.level <- shift t.level;
    t.path <- shift t.path;
    t.key <- shift t.key;
    List.iteri
      (fun d (r : row) ->
        let i = at + d in
        t.start.{i} <- r.start;
        t.fin.{i} <- r.fin;
        t.level.{i} <- r.level;
        t.path.{i} <- path_id t r.path;
        t.key.{i} <- t.next_key;
        t.next_key <- t.next_key + 1;
        set_data t i r.data)
      rows;
    t.n <- t.n + k

(** [remove t i j] drops rows [i] to [j - 1]. *)
let remove (t : t) i j =
  for r = i to j - 1 do
    set_data t r None
  done;
  List.iter (fun a -> move a ~src:j ~dst:i (t.n - j)) [ t.start; t.fin; t.level; t.path; t.key ];
  t.n <- t.n - (j - i)

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Blas_disk.Pager.Corrupt msg)) fmt

(** [of_sd rows] — the columns of SD's rows (in any order), each
    row's path worked out from how the rows nest: sorted by start, a
    row's parent is the nearest earlier row whose interval is still
    open.  Reads no P-label, so it serves every catalog version.
    @raise Blas_disk.Pager.Corrupt on rows that do not nest into one
    document (no rows, two roots, a level that skips). *)
let of_sd rows =
  let module V = Blas_rel.Value in
  let rows =
    Array.of_list
      (List.map
         (fun tu ->
           let get = Blas_rel.Tuple.get tu in
           match (get 0, get 1, get 2, get 3, get 4) with
           | V.Str tag, V.Int s, V.Int e, V.Int l, V.Null -> (tag, s, e, l, None)
           | V.Str tag, V.Int s, V.Int e, V.Int l, V.Str d -> (tag, s, e, l, Some d)
           | _ -> corrupt "malformed SD row")
         rows)
  in
  let n = Array.length rows in
  if n = 0 then corrupt "empty document";
  Array.stable_sort (fun (_, s1, _, _, _) (_, s2, _, _, _) -> Int.compare s1 s2) rows;
  let t =
    {
      n;
      start = ints n;
      fin = ints n;
      level = ints n;
      path = ints n;
      key = ints n;
      texts = Hashtbl.create n;
      next_key = n;
      paths = [||];
      ids = Hashtbl.create 64;
    }
  in
  (* the path id of a tag under a parent path id (-1: the root) *)
  let child = Hashtbl.create 64 in
  let child_id parent tag =
    match Hashtbl.find_opt child (parent, tag) with
    | Some id -> id
    | None ->
      let prefix = if parent < 0 then [] else t.paths.(parent) in
      let id = path_id t (prefix @ [ tag ]) in
      Hashtbl.add child (parent, tag) id;
      id
  in
  (* [open_]: the rows whose intervals are still open, innermost
     first *)
  let rec close open_ start =
    match open_ with
    | j :: rest when t.fin.{j} < start -> close rest start
    | _ -> open_
  in
  ignore
    (Array.fold_left
       (fun (i, open_) (tag, start, fin, level, data) ->
         let open_ = close open_ start in
         let parent, depth =
           match open_ with
           | j :: _ -> (t.path.{j}, t.level.{j})
           | [] when i = 0 -> (-1, 0)
           | [] -> corrupt "multiple roots"
         in
         if level <> depth + 1 then
           corrupt "level %d does not match nesting depth %d" level (depth + 1);
         t.start.{i} <- start;
         t.fin.{i} <- fin;
         t.level.{i} <- level;
         t.path.{i} <- child_id parent tag;
         t.key.{i} <- i;
         Option.iter (Hashtbl.replace t.texts i) data;
         (i + 1, i :: open_))
       (0, []) rows);
  t

(** [node t i] — the document node of row [i], with its subtree: the
    rows after [i] that start inside its interval.  O(subtree). *)
let node (t : t) i =
  (* row [j]'s node and the first row after its subtree *)
  let rec build j : Blas_xpath.Doc.node * int =
    let rec kids acc k =
      if k < t.n && t.start.{k} < t.fin.{j} then
        let kid, k = build k in
        kids (kid :: acc) k
      else (List.rev acc, k)
    in
    let children, next = kids [] (j + 1) in
    let path = t.paths.(t.path.{j}) in
    ( {
        tag = Layout.tag path;
        data = Hashtbl.find_opt t.texts t.key.{j};
        start = t.start.{j};
        fin = t.fin.{j};
        level = t.level.{j};
        source_path = path;
        children;
      },
      next )
  in
  fst (build i)

(** Every node's SP row, P-labels from [guide], in document order. *)
let sp_rows guide (t : t) =
  List.init t.n (fun i ->
      let r = row t i in
      Layout.sp_row guide ~path:r.path ~start:r.start ~fin:r.fin ~level:r.level
        ~data:r.data)

(** [iter_values t f] calls [f tag text] on every node, in document
    order (what {!Blas_optimizer.Stats.collect} reads). *)
let iter_values (t : t) f =
  for i = 0 to t.n - 1 do
    f (Layout.tag t.paths.(t.path.{i})) (Hashtbl.find_opt t.texts t.key.{i})
  done

(** Whether both hold the same rows. *)
let equal (a : t) (b : t) =
  a.n = b.n && List.for_all (fun i -> row a i = row b i) (List.init a.n Fun.id)
