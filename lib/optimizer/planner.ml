type engine_kind = Rdbms | Twig
type translator_kind = Split | Pushup | Unfold

type shape = {
  sh_translator : translator_kind;
  sh_visited : float;
  sh_join_input : float;
  sh_djoins : int;
  sh_branches : int;
}

type candidate = {
  cd_translator : translator_kind;
  cd_engine : engine_kind;
  cd_cost : float;
}

let translator_label = function
  | Split -> "Split"
  | Pushup -> "Pushup"
  | Unfold -> "Unfold"

let engine_label = function Rdbms -> "rdbms" | Twig -> "twig"

let label c =
  Printf.sprintf "%s/%s" (translator_label c.cd_translator) (engine_label c.cd_engine)

(* Cost model weights, in rdbms "tuple visits" as the base unit.
   Calibrated against the fig10 bench matrix: the rdbms engine streams
   sorted interval scans (cheapest per tuple) but pays to merge-dedup
   the union when a translation has more than one branch, while the
   twig engine pays more per streamed tuple (stream construction +
   stack maintenance) yet amortizes all branches and joins into one
   pass. *)
let w_page = 4.0
let rdbms_join_tuple = 2.0
let rdbms_djoin = 48.0
let rdbms_branch = 64.0
let rdbms_union_tuple = 1.0
let twig_scan_tuple = 1.6
let twig_join_tuple = 3.2
let twig_djoin = 12.0
let twig_branch = 24.0

let default_page_rows = 64

let pages_of ~page_rows tuples = (tuples /. float_of_int page_rows) +. 1.0

let engine_cost ~engine ~visited ~pages ~join_input ~djoins ~branches =
  match engine with
  | Rdbms ->
      visited
      +. (w_page *. pages)
      +. (rdbms_join_tuple *. join_input)
      +. (rdbms_djoin *. float_of_int djoins)
      +. (rdbms_branch *. float_of_int branches)
      +. (if branches > 1 then rdbms_union_tuple *. visited else 0.)
  | Twig ->
      (twig_scan_tuple *. visited)
      +. (w_page *. pages)
      +. (twig_join_tuple *. join_input)
      +. (twig_djoin *. float_of_int djoins)
      +. (twig_branch *. float_of_int branches)

let price ?(page_rows = default_page_rows) ~engine shape =
  engine_cost ~engine ~visited:shape.sh_visited
    ~pages:(pages_of ~page_rows shape.sh_visited)
    ~join_input:shape.sh_join_input ~djoins:shape.sh_djoins
    ~branches:shape.sh_branches

let translator_rank = function Split -> 2 | Pushup -> 0 | Unfold -> 1
let engine_rank = function Rdbms -> 0 | Twig -> 1

let enumerate ?(page_rows = default_page_rows) shapes =
  let cands =
    List.concat_map
      (fun sh ->
        List.map
          (fun engine ->
            {
              cd_translator = sh.sh_translator;
              cd_engine = engine;
              cd_cost = price ~page_rows ~engine sh;
            })
          [ Rdbms; Twig ])
      shapes
  in
  List.sort
    (fun a b ->
      match compare a.cd_cost b.cd_cost with
      | 0 -> (
          match compare (engine_rank a.cd_engine) (engine_rank b.cd_engine) with
          | 0 ->
              compare
                (translator_rank a.cd_translator)
                (translator_rank b.cd_translator)
          | c -> c)
      | c -> c)
    cands

(* Measured runs report index seeks (page-directory descents) instead
   of union branches (the counters don't attribute work to branches);
   one seek prices like a fraction of a branch restart. *)
let w_seek = 16.0

let actual_cost ~engine ~tuples ~pages ~join_tuples ~djoins ~seeks =
  let page_seek =
    (w_page *. float_of_int pages) +. (w_seek *. float_of_int seeks)
  in
  match engine with
  | Rdbms ->
      float_of_int tuples +. page_seek
      +. (rdbms_join_tuple *. float_of_int join_tuples)
      +. (rdbms_djoin *. float_of_int djoins)
  | Twig ->
      (twig_scan_tuple *. float_of_int tuples)
      +. page_seek
      +. (twig_join_tuple *. float_of_int join_tuples)
      +. (twig_djoin *. float_of_int djoins)
