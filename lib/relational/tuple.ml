(** Tuples: flat value arrays positioned by a {!Schema.t}. *)

type t = Value.t array

let of_list = Array.of_list

let get (t : t) i = t.(i)

let arity (t : t) = Array.length t

let of_array (values : Value.t array) : t = values

(** [project indices t] builds a narrower tuple from selected positions. *)
let project indices (t : t) : t = Array.map (fun i -> t.(i)) indices

let is_identity indices arity =
  Array.length indices = arity
  &&
  let rec go i = i >= arity || (indices.(i) = i && go (i + 1)) in
  go 0

let concat_project ia (a : t) id (d : t) : t =
  let na = Array.length ia in
  let out = Array.make (na + Array.length id) Value.Null in
  for j = 0 to na - 1 do
    out.(j) <- a.(ia.(j))
  done;
  for j = 0 to Array.length id - 1 do
    out.(na + j) <- d.(id.(j))
  done;
  out

let concat (a : t) (b : t) : t = Array.append a b

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then Stdlib.compare la lb
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let pp ppf (t : t) =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_string t)))
