(** Rendering {!Sql_ast} queries as SQL text.  The output is accepted by
    {!Sql_parse}, and the test suite checks the round trip. *)

open Sql_ast

let rec pp_expr ppf = function
  | Col c -> Format.pp_print_string ppf c
  | Int i -> Format.pp_print_int ppf i
  | Str s ->
    Format.fprintf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Add (a, b) -> Format.fprintf ppf "%a + %a" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf ppf "%a - %a" pp_expr a pp_expr b

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_cond ppf { lhs; cmp; rhs } =
  Format.fprintf ppf "%a %s %a" pp_expr lhs (cmp_symbol cmp) pp_expr rhs

let pp_select ppf { projection; from; where } =
  Format.fprintf ppf "@[<v 2>select %s@ from %s"
    (match projection with
    | Star -> "*"
    | Columns cols -> String.concat ", " cols)
    (String.concat ", "
       (List.map
          (fun (table, alias) ->
            if String.equal table alias then table else table ^ " " ^ alias)
          from));
  (match where with
  | [] -> ()
  | first :: rest ->
    Format.fprintf ppf "@ where %a" pp_cond first;
    List.iter (fun c -> Format.fprintf ppf "@ and %a" pp_cond c) rest);
  Format.fprintf ppf "@]"

let rec pp ppf = function
  | Select s -> pp_select ppf s
  | Union [] -> invalid_arg "Sql_print.pp: empty union"
  | Union (first :: rest) ->
    Format.fprintf ppf "@[<v>%a" pp_block first;
    List.iter (fun q -> Format.fprintf ppf "@ union@ %a" pp_block q) rest;
    Format.fprintf ppf "@]"

and pp_block ppf q =
  match q with
  | Select _ -> Format.fprintf ppf "(%a)" pp q
  | Union _ -> Format.fprintf ppf "(%a)" pp q

let to_string q = Format.asprintf "%a" pp q
