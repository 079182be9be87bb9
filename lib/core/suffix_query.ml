(** The output of query decomposition: a set of suffix path subqueries
    plus the ancestor-descendant relationships between their results —
    exactly what the "query decomposition" box of Figure 6 hands to the
    SQL generation and composition modules.

    Each {!item} evaluates, via its P-label, to the bindings of the
    {e leaf} of its suffix path.  A {!join} relates the leaf bindings of
    two items: [Exact k] when the original query connected them by a
    chain of [k] child axes (Section 4.1.1 records this level
    difference), [At_least k] when the chain started with a descendant
    axis. *)

(** A suffix path expression (Definition 2.3). *)
type path = {
  absolute : bool;
      (** [true] for a simple path (leading "/"), [false] for a leading
          descendant step "//" *)
  tags : string list;  (** outermost tag first *)
}

type item = {
  id : int;
  path : path;
  value : Blas_xpath.Ast.value_constraint option;
      (** data constraint on the item's leaf *)
}

type gap = Exact of int | At_least of int

type join = { anc : int; desc : int; gap : gap }

type t = {
  items : item list;  (** in id order, ids are 1-based and dense *)
  joins : join list;
  output : int;  (** id of the item whose bindings answer the query *)
}

let find_item t id = List.find (fun i -> i.id = id) t.items

let item_count t = List.length t.items

let djoin_count t = List.length t.joins

(** Root of the join tree: the item that is never a descendant. *)
let root_item t =
  let desc_ids = List.map (fun j -> j.desc) t.joins in
  match List.filter (fun i -> not (List.mem i.id desc_ids)) t.items with
  | [ i ] -> i
  | _ -> invalid_arg "Suffix_query.root_item: join graph is not a tree"

let children_of t id = List.filter (fun j -> j.anc = id) t.joins

let alias id = Printf.sprintf "T%d" id

let pp_gap ppf = function
  | Exact k -> Format.fprintf ppf "=%d" k
  | At_least k -> Format.fprintf ppf ">=%d" k

let pp_path ppf { absolute; tags } =
  match tags with
  | [] when not absolute -> Format.pp_print_string ppf "//*"
  | _ ->
    Format.fprintf ppf "%s%s" (if absolute then "/" else "//") (String.concat "/" tags)

let interval guide { absolute; tags } =
  Blas_xml.Dataguide.suffix_interval guide ~absolute ~tags

let pp_item ppf { id; path; value } =
  Format.fprintf ppf "%s: %a" (alias id) pp_path path;
  match value with
  | Some (Blas_xpath.Ast.Equals v) -> Format.fprintf ppf " = %S" v
  | Some (Blas_xpath.Ast.Differs v) -> Format.fprintf ppf " != %S" v
  | None -> ()

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun i -> Format.fprintf ppf "%a@," pp_item i) t.items;
  List.iter
    (fun j ->
      Format.fprintf ppf "join %s -> %s (gap %a)@," (alias j.anc) (alias j.desc)
        pp_gap j.gap)
    t.joins;
  Format.fprintf ppf "output %s@]" (alias t.output)
