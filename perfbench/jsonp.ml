(** A small JSON reader for the payloads the ledger reads back from the
    program: [TRACE] envelopes, [TRACE GET] bodies and [METRICS JSON]
    registries.  It produces {!Blas_obs.Json.t}, the type the program
    writes them with. *)

module J = Blas_obs.Json

exception Bad of string

let parse (s : string) : J.t =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t')
    then begin
      incr i;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !i));
    incr i
  in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then begin
      i := !i + String.length word;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at %d" !i))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then raise (Bad "unterminated string");
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> ()
      | '\\' ->
        let e = s.[!i] in
        incr i;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let code = int_of_string ("0x" ^ String.sub s !i 4) in
          i := !i + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !i in
    while
      !i < n
      && match s.[!i] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr i
    done;
    let lit = String.sub s start (!i - start) in
    match int_of_string_opt lit with
    | Some v -> J.Int v
    | None -> J.Float (float_of_string lit)
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr i;
      ws ();
      if peek () = '}' then (incr i; J.Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr i; ws (); fields ((k, v) :: acc)
          | '}' -> incr i; J.Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad (Printf.sprintf "bad object at %d" !i))
        in
        fields []
    | '[' ->
      incr i;
      ws ();
      if peek () = ']' then (incr i; J.List [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr i; items (v :: acc)
          | ']' -> incr i; J.List (List.rev (v :: acc))
          | _ -> raise (Bad (Printf.sprintf "bad list at %d" !i))
        in
        items []
    | '"' -> J.Str (str ())
    | 't' -> literal "true" (J.Bool true)
    | 'f' -> literal "false" (J.Bool false)
    | 'n' -> literal "null" J.Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !i <> n then raise (Bad (Printf.sprintf "trailing bytes at %d" !i));
  v

let member k = function
  | J.Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_list = function J.List l -> l | _ -> []

let to_string = function J.Str s -> Some s | _ -> None

let to_float = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None
