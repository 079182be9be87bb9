(** Materialized relations: a schema plus a tuple array, for export
    ({!Table.relation}) and tests.  The executor keeps its results as
    row lists instead (see {!Executor.run}); base tables add clustered
    pages and a page directory on top (see {!Table}). *)

type t = { schema : Schema.t; tuples : Tuple.t array }

let make schema tuples =
  Array.iter
    (fun tuple ->
      if Tuple.arity tuple <> Schema.arity schema then
        invalid_arg "Relation.make: tuple arity mismatch")
    tuples;
  { schema; tuples }

let schema t = t.schema

let tuples t = t.tuples

let cardinality t = Array.length t.tuples

let is_empty t = cardinality t = 0

(** [column t name] extracts one column as a list.
    @raise Not_found for an unknown column. *)
let column t name =
  let i = Schema.index_of t.schema name in
  Array.to_list (Array.map (fun tuple -> Tuple.get tuple i) t.tuples)

(** [sort_by t columns] sorts ascending by the given columns. *)
let sort_by t columns =
  let idx = List.map (Schema.index_of t.schema) columns in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | i :: rest ->
        let c = Value.compare (Tuple.get a i) (Tuple.get b i) in
        if c <> 0 then c else go rest
    in
    go idx
  in
  let tuples = Array.copy t.tuples in
  Array.sort cmp tuples;
  { t with tuples }

(** Duplicate elimination (sorted-order implementation). *)
let distinct t =
  let tuples = Array.copy t.tuples in
  Array.sort Tuple.compare tuples;
  let out = ref [] in
  Array.iteri
    (fun i tuple ->
      if i = 0 || not (Tuple.equal tuple tuples.(i - 1)) then out := tuple :: !out)
    tuples;
  { t with tuples = Array.of_list (List.rev !out) }

let pp ppf t =
  Format.fprintf ppf "%a [%d rows]" Schema.pp t.schema (cardinality t);
  Array.iteri
    (fun i tuple ->
      if i < 20 then Format.fprintf ppf "@\n  %a" Tuple.pp tuple
      else if i = 20 then Format.fprintf ppf "@\n  ...")
    t.tuples
