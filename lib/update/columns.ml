(** The document as flat label columns in start order: the one
    structure a storage is built from, and the one copy it derives from
    its tables.  One builder fills them, a row per node in start order,
    each interning its path, and counts the paths into the guide; two
    drivers feed it: a document's parse
    events ({!of_events}, the index build) and SD's rows nested by
    interval ({!of_sd}, after an open or for a labeled model).  SP's and SD's rows come from the columns by
    bucket passes ({!tables}).  Edits run over them ({!Update_engine}),
    and the labeled document model is a view of them ({!node}).

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

(* Text slots: a table keyed by a row's [key], which rows take in
   sequence, so the key is its own hash. *)
module Texts = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type t = {
  mutable n : int;  (** rows in use; the columns may be longer *)
  mutable start : ints;
  mutable fin : ints;
  mutable level : ints;
  mutable path : ints;
  mutable key : ints;
  texts : string Texts.t;
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
    data = Texts.find_opt t.texts t.key.{i};
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
  | Some s -> Texts.replace t.texts t.key.{i} s
  | None -> Texts.remove t.texts t.key.{i}

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

(* ------------------------------------------------------------------ *)
(* The builder                                                         *)

(* Empty columns with room for [capacity] rows, for the builder. *)
let empty capacity =
  let col () = ints (max 16 capacity) in
  {
    n = 0;
    start = col ();
    fin = col ();
    level = col ();
    path = col ();
    key = col ();
    texts = Texts.create 256;
    next_key = 0;
    paths = [||];
    ids = Hashtbl.create 64;
  }

(* The builder: appends a row tagged [tag] under row [parent] (-1: a
   root), its end not yet known, to columns built in start order; the
   row.  The row's path is its parent's plus its tag, interned through
   [child]: (parent's path id, or -1 above the root; tag) -> path id. *)
let add (t : t) child ~parent ~tag ~start =
  let i = t.n in
  if i = Bigarray.Array1.dim t.start then begin
    let g a = grow a (i + 1) ~used:i in
    t.start <- g t.start;
    t.fin <- g t.fin;
    t.level <- g t.level;
    t.path <- g t.path;
    t.key <- g t.key
  end;
  let up = if parent < 0 then -1 else t.path.{parent} in
  let id =
    match Hashtbl.find child (up, tag) with
    | id -> id
    | exception Not_found ->
      let id = path_id t ((if up < 0 then [] else t.paths.(up)) @ [ tag ]) in
      Hashtbl.add child (up, tag) id;
      id
  in
  t.start.{i} <- start;
  t.fin.{i} <- start;
  t.level.{i} <- (if parent < 0 then 1 else t.level.{parent} + 1);
  t.path.{i} <- id;
  t.key.{i} <- i;
  t.n <- i + 1;
  t.next_key <- i + 1;
  i

(* The columns and the counted guide of their paths, labels fresh. *)
let finish (t : t) =
  let counts = Array.make (Hashtbl.length t.ids) 0 in
  for i = 0 to t.n - 1 do
    counts.(t.path.{i}) <- counts.(t.path.{i}) + 1
  done;
  ( t,
    Blas_xml.Dataguide.of_path_counts
      (List.init (Hashtbl.length t.ids) (fun id -> (t.paths.(id), counts.(id)))) )

(** [of_events iter] — the columns of the document whose events [iter f]
    passes to [f] in document order ({!Blas_xml.Sax.parse} over XML text,
    {!Blas_xml.Dom.iter_events} over a tree), with the counted guide of
    their paths.  Every start tag, end tag and text unit takes one
    position, 1-based, and the root sits at level 1; an attribute is a
    child tagged ["@name"] holding one text unit; a node's data is its
    direct text units, concatenated.  Labels, rows and guide are those
    of [Blas_xpath.Doc.of_tree (Blas_xml.Dom.of_events events)].
    @raise Failure as {!Blas_xml.Dom.of_events} does: at a stray end
    element, and once the events end on an unclosed element, no root or
    two roots. *)
let of_events iter =
  let t = empty 1024 and child = Hashtbl.create 64 in
  (* the open elements' rows, innermost first; the last position taken *)
  let stack = ref [] and pos = ref 0 and roots = ref 0 in
  let open_ tag =
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    if parent < 0 then incr roots;
    incr pos;
    stack := add t child ~parent ~tag ~start:!pos :: !stack
  in
  let close () =
    match !stack with
    | i :: up ->
      incr pos;
      t.fin.{i} <- !pos;
      stack := up
    | [] -> failwith "Dom.of_events: stray end element"
  in
  let text s =
    match !stack with
    | i :: _ ->
      incr pos;
      Texts.replace t.texts i
        (match Texts.find t.texts i with d -> d ^ s | exception Not_found -> s)
    | [] -> ()
  in
  iter (function
    | Blas_xml.Types.Start_element (tag, attrs) ->
      open_ tag;
      List.iter
        (fun (name, value) ->
          open_ ("@" ^ name);
          text value;
          close ())
        attrs
    | End_element _ -> close ()
    | Text s -> text s);
  (match !stack with
  | i :: _ ->
    failwith ("Dom.of_events: unclosed <" ^ Layout.tag t.paths.(t.path.{i}) ^ ">")
  | [] -> ());
  if !roots = 0 then failwith "Dom.of_events: no root element";
  if !roots > 1 then failwith "Dom.of_events: multiple root elements";
  finish t

(** [of_sd rows] — the columns of SD's rows (in any order), sorted by
    start and each nested under the nearest earlier row whose interval
    is still open, with the counted guide of their paths (labels
    fresh).  Reads no P-label, so it serves every catalog version; a
    labeled model's SD rows give its columns with its labels kept.
    @raise Blas_disk.Pager.Corrupt on rows that do not nest into one
    document (no rows, two roots, a level that skips). *)
let of_sd rows =
  let module V = Blas_rel.Value in
  let rows = Array.of_list rows in
  if rows = [||] then corrupt "empty document";
  Array.stable_sort
    (fun a b -> V.compare (Blas_rel.Tuple.get a 1) (Blas_rel.Tuple.get b 1))
    rows;
  let t = empty (Array.length rows) and child = Hashtbl.create 64 in
  (* [open_]: the rows whose intervals are still open, innermost first *)
  let rec close open_ start =
    match open_ with
    | j :: rest when t.fin.{j} < start -> close rest start
    | _ -> open_
  in
  ignore
    (Array.fold_left
       (fun open_ tu ->
         let get = Blas_rel.Tuple.get tu in
         let tag, start, fin, level =
           match (get 0, get 1, get 2, get 3, get 4) with
           | V.Str tag, V.Int s, V.Int e, V.Int l, (V.Null | V.Str _) -> (tag, s, e, l)
           | _ -> corrupt "malformed SD row"
         in
         let open_ = close open_ start in
         let parent, depth =
           match open_ with
           | j :: _ -> (j, t.level.{j})
           | [] when t.n = 0 -> (-1, 0)
           | [] -> corrupt "multiple roots"
         in
         if level <> depth + 1 then
           corrupt "level %d does not match nesting depth %d" level (depth + 1);
         let i = add t child ~parent ~tag ~start in
         t.fin.{i} <- fin;
         (match get 4 with V.Str d -> Texts.replace t.texts i d | _ -> ());
         i :: open_)
       [] rows);
  finish t

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
        data = Texts.find_opt t.texts t.key.{j};
        start = t.start.{j};
        fin = t.fin.{j};
        level = t.level.{j};
        source_path = path;
        children;
      },
      next )
  in
  fst (build i)

(* The rows of one table keyed (lead, start), in its cluster order:
   grouped by [lead path] — groups in {!Blas_rel.Value.compare} order,
   each group's rows in start order — by one stable bucket pass over
   the rows, which are in start order.  A lead is computed once per
   path, and a group's rows share one copy of it. *)
let clustered (t : t) lead =
  let module V = Blas_rel.Value in
  (* a group per distinct lead: the lead and its rows; a path's group *)
  let groups = Hashtbl.create 64 and of_path = Array.make (Hashtbl.length t.ids) None in
  for i = t.n - 1 downto 0 do
    let p = t.path.{i} in
    let lead, rows =
      match of_path.(p) with
      | Some group -> group
      | None ->
        let v = lead t.paths.(p) in
        let group =
          match Hashtbl.find_opt groups v with Some g -> g | None -> (v, ref [])
        in
        Hashtbl.replace groups v group;
        of_path.(p) <- Some group;
        group
    in
    let data =
      match Texts.find t.texts t.key.{i} with d -> V.Str d | exception Not_found -> V.Null
    in
    rows :=
      Blas_rel.Tuple.of_array
        [| lead; V.Int t.start.{i}; V.Int t.fin.{i}; V.Int t.level.{i}; data |]
      :: !rows
  done;
  Hashtbl.fold (fun _ group acc -> group :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> V.compare a b)
  |> List.concat_map (fun (_, rows) -> !rows)

(** Every node's SP row, P-labels from [guide], in SP's cluster order
    (P-label, start). *)
let sp_rows guide (t : t) =
  clustered t (fun path -> Blas_rel.Value.Int (Layout.plabel guide path))

(** Every node's SD row, in SD's cluster order (tag, start). *)
let sd_rows (t : t) = clustered t (fun path -> Blas_rel.Value.Str (Layout.tag path))

(** [tables store ~guide t] bulk-loads [t]'s SP (P-labels from [guide])
    and SD into [store]; the rows reach {!Layout.load} clustered, so
    nothing sorts them. *)
let tables store ~guide (t : t) =
  let sp = Layout.load store Layout.sp (sp_rows guide t) in
  (sp, Layout.load store Layout.sd (sd_rows t))

(** [iter_values t f] calls [f tag text] on every node that has text,
    in document order (what {!Blas_optimizer.Stats.collect} reads). *)
let iter_values (t : t) f =
  let tags = Array.init (Hashtbl.length t.ids) (fun id -> Layout.tag t.paths.(id)) in
  for i = 0 to t.n - 1 do
    match Texts.find t.texts t.key.{i} with
    | text -> f tags.(t.path.{i}) text
    | exception Not_found -> ()
  done

(** Whether both hold the same rows. *)
let equal (a : t) (b : t) =
  a.n = b.n && List.for_all (fun i -> row a i = row b i) (List.init a.n Fun.id)
