(** A recursive-descent parser for the SQL subset printed by
    {!Sql_print}: select-from-where blocks with conjunctive WHERE clauses,
    combined by UNION, with parenthesized blocks.  Keywords are
    case-insensitive.  Numeric literals parse to native integers. *)

exception Error of string

type token =
  | Ident of string  (** possibly qualified: a.b *)
  | Number of string
  | String of string
  | Symbol of string  (** one of ( ) , = <> < <= > >= + - * *)

let keywords = [ "select"; "from"; "where"; "and"; "union"; "as" ]

let is_keyword s = List.mem (String.lowercase_ascii s) keywords

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let is_ident_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '@' -> true
    | _ -> false
  in
  while !i < n do
    let c = input.[!i] in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' | ')' | ',' | '+' | '-' | '*' | '=' ->
      emit (Symbol (String.make 1 c));
      incr i
    | '<' ->
      if !i + 1 < n && input.[!i + 1] = '=' then begin
        emit (Symbol "<=");
        i := !i + 2
      end
      else if !i + 1 < n && input.[!i + 1] = '>' then begin
        emit (Symbol "<>");
        i := !i + 2
      end
      else begin
        emit (Symbol "<");
        incr i
      end
    | '>' ->
      if !i + 1 < n && input.[!i + 1] = '=' then begin
        emit (Symbol ">=");
        i := !i + 2
      end
      else begin
        emit (Symbol ">");
        incr i
      end
    | '\'' ->
      (* SQL string literal; '' escapes a quote. *)
      let buf = Buffer.create 16 in
      let rec go j =
        if j >= n then raise (Error "unterminated string literal")
        else if input.[j] = '\'' then
          if j + 1 < n && input.[j + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            go (j + 2)
          end
          else j + 1
        else begin
          Buffer.add_char buf input.[j];
          go (j + 1)
        end
      in
      i := go (!i + 1);
      emit (String (Buffer.contents buf))
    | '0' .. '9' ->
      let start = !i in
      while !i < n && (match input.[!i] with '0' .. '9' -> true | _ -> false) do
        incr i
      done;
      emit (Number (String.sub input start (!i - start)))
    | c when is_ident_char c ->
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      emit (Ident (String.sub input start (!i - start)))
    | c -> raise (Error (Printf.sprintf "unexpected character %C" c))
  done;
  List.rev !tokens

type state = { mutable tokens : token list }

let peek st = match st.tokens with [] -> None | t :: _ -> Some t

let advance st =
  match st.tokens with [] -> raise (Error "unexpected end of query") | _ :: rest ->
    st.tokens <- rest

let expect_symbol st s =
  match peek st with
  | Some (Symbol s') when String.equal s s' -> advance st
  | _ -> raise (Error (Printf.sprintf "expected %s" s))

let keyword st kw =
  match peek st with
  | Some (Ident id) when String.lowercase_ascii id = kw ->
    advance st;
    true
  | _ -> false

let expect_keyword st kw =
  if not (keyword st kw) then raise (Error (Printf.sprintf "expected %s" kw))

let parse_number text =
  match int_of_string_opt text with
  | Some i -> Sql_ast.Int i
  | None -> raise (Error (Printf.sprintf "number out of range: %s" text))

let parse_atom st =
  match peek st with
  | Some (Ident id) when not (is_keyword id) ->
    advance st;
    Sql_ast.Col id
  | Some (Number text) ->
    advance st;
    parse_number text
  | Some (String s) ->
    advance st;
    Sql_ast.Str s
  | _ -> raise (Error "expected a column, number or string")

let rec parse_expr st =
  let lhs = parse_atom st in
  match peek st with
  | Some (Symbol "+") ->
    advance st;
    Sql_ast.Add (lhs, parse_expr st)
  | Some (Symbol "-") ->
    advance st;
    Sql_ast.Sub (lhs, parse_expr st)
  | _ -> lhs

let parse_cmp st =
  match peek st with
  | Some (Symbol "=") -> advance st; Sql_ast.Eq
  | Some (Symbol "<>") -> advance st; Sql_ast.Ne
  | Some (Symbol "<") -> advance st; Sql_ast.Lt
  | Some (Symbol "<=") -> advance st; Sql_ast.Le
  | Some (Symbol ">") -> advance st; Sql_ast.Gt
  | Some (Symbol ">=") -> advance st; Sql_ast.Ge
  | _ -> raise (Error "expected a comparison operator")

let parse_cond st =
  let lhs = parse_expr st in
  let cmp = parse_cmp st in
  let rhs = parse_expr st in
  { Sql_ast.lhs; cmp; rhs }

let parse_projection st =
  match peek st with
  | Some (Symbol "*") ->
    advance st;
    Sql_ast.Star
  | _ ->
    let rec go acc =
      match peek st with
      | Some (Ident id) when not (is_keyword id) ->
        advance st;
        (match peek st with
        | Some (Symbol ",") ->
          advance st;
          go (id :: acc)
        | _ -> List.rev (id :: acc))
      | _ -> raise (Error "expected a column in the select list")
    in
    Sql_ast.Columns (go [])

let parse_from st =
  let parse_table () =
    match peek st with
    | Some (Ident table) when not (is_keyword table) ->
      advance st;
      let _ = keyword st "as" in
      (match peek st with
      | Some (Ident alias) when not (is_keyword alias) ->
        advance st;
        (table, alias)
      | _ -> (table, table))
    | _ -> raise (Error "expected a table name")
  in
  let rec go acc =
    let t = parse_table () in
    match peek st with
    | Some (Symbol ",") ->
      advance st;
      go (t :: acc)
    | _ -> List.rev (t :: acc)
  in
  go []

let parse_select st =
  expect_keyword st "select";
  let projection = parse_projection st in
  expect_keyword st "from";
  let from = parse_from st in
  let where =
    if keyword st "where" then begin
      let rec go acc =
        let c = parse_cond st in
        if keyword st "and" then go (c :: acc) else List.rev (c :: acc)
      in
      go []
    end
    else []
  in
  { Sql_ast.projection; from; where }

let rec parse_query st =
  let first = parse_block st in
  let rec unions acc =
    if keyword st "union" then unions (parse_block st :: acc) else List.rev acc
  in
  match unions [ first ] with [ q ] -> q | qs -> Sql_ast.Union qs

and parse_block st =
  match peek st with
  | Some (Symbol "(") ->
    advance st;
    let q = parse_query st in
    expect_symbol st ")";
    q
  | _ -> Sql_ast.Select (parse_select st)

(** [parse input] parses a query.
    @raise Error on malformed input or trailing tokens. *)
let parse input =
  let st = { tokens = tokenize input } in
  let q = parse_query st in
  if st.tokens <> [] then raise (Error "trailing tokens after query");
  q
