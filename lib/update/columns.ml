(** The document as flat label columns in start order: the one
    structure edits run over ({!Update_engine}), built from one scan of
    SP.

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

(** [of_sp guide sp] — the columns of the nodes in [sp], each path
    found through its P-label in [guide]. *)
let of_sp guide sp =
  let rows = Array.of_list (Blas_rel.Table.scan sp (Blas_rel.Counters.create ())) in
  let n = Array.length rows in
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
  let id_of = Hashtbl.create 64 in
  List.iter
    (fun (path, _, label) -> Hashtbl.replace id_of label (path_id t path))
    (Blas_xml.Dataguide.entries guide);
  let int_at k i = Blas_rel.Value.to_int (Blas_rel.Tuple.get rows.(i) k) in
  (* SP is clustered on (plabel, start): one sort puts it in start
     order. *)
  let starts = Array.init n (int_at 1) in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare starts.(a) starts.(b)) order;
  Array.iteri
    (fun i k ->
      t.start.{i} <- starts.(k);
      t.fin.{i} <- int_at 2 k;
      t.level.{i} <- int_at 3 k;
      t.path.{i} <- Hashtbl.find id_of (int_at 0 k);
      t.key.{i} <- i;
      match Blas_rel.Tuple.get rows.(k) 4 with
      | Blas_rel.Value.Str s -> Hashtbl.replace t.texts i s
      | _ -> ())
    order;
  t

(** Every node's tag and text, in document order. *)
let values (t : t) =
  List.init t.n (fun i ->
      (Layout.tag t.paths.(t.path.{i}), Hashtbl.find_opt t.texts t.key.{i}))

(** Whether both hold the same rows. *)
let equal (a : t) (b : t) =
  a.n = b.n && List.for_all (fun i -> row a i = row b i) (List.init a.n Fun.id)
