(** The blas wire protocol: newline-framed text requests,
    length-prefixed replies.

    {b Requests} are single lines of UTF-8 text terminated by ['\n']
    (a trailing ['\r'] is tolerated), at most {!max_frame} bytes:

    {v
      PING
      LIST
      STATS
      STATS TIMESERIES                       (ring of periodic metric snapshots)
      METRICS                                (Prometheus text exposition)
      METRICS JSON
      DEADLINE <ms>                          (header: deadline for the next request)
      TRACE                                  (header: trace the next request)
      TRACE ID <id>                          (header: trace under the given id)
      TRACE BG <id>                          (header: record-only trace — plain reply)
      TRACE GET <id>                         (a recent trace by id)
      HELLO <name>                           (handshake: the caller identifies itself)
      QUERY <doc> <translator> <engine> <xpath...>
      UPDATE <doc> INSERT <parent> <pos> <xml...>
      UPDATE <doc> DELETE <start>
      UPDATE <doc> RETEXT <start> [text...]
      UPDATEX <doc> <INSERT|DELETE|RETEXT> ...  (reply prefixed with the invalidation)
      INVAL <doc> <invalidation>             (apply a pushed cache invalidation)
      SLEEP <ms>                             (debug builds only)
      QUIT
      SHUTDOWN
    v}

    Headers carry no reply frame and are one-shot: the next non-header
    frame consumes every pending header — a command, a rejected command
    or an unparsable line alike — and only an admitted request (QUERY,
    UPDATE, UPDATEX, INVAL, SLEEP) applies them.

    [TRACE BG] is the router's fan-out form: the shard stores the trace
    in its ring under the given id (retrievable with [TRACE GET]) but
    replies with the plain payload, so scatter-gather merging still sees
    byte-identical answer frames.  [UPDATEX] is UPDATE whose reply's
    first line is the serialized §11 invalidation record (see
    {!invalidation_to_string}); the router strips it, pushes it to read
    replicas with [INVAL], and forwards the remaining lines — the
    ordinary UPDATE payload — to the client.

    {b Replies} are a status line, length-prefixed when they carry a
    payload so clients never have to guess where a multi-line body
    ends:

    {v
      OK <len>\n<len bytes of payload>\n
      ERR <message>\n
      BUSY\n
      TIMEOUT\n
      BYE\n
    v}

    The XML argument of [UPDATE ... INSERT] must not contain raw
    newlines (a newline ends the frame); the XML printer's compact form
    satisfies this. *)

(** Longest accepted request line, terminator included.  Replies are
    bounded by the same limit on the status line; payloads are bounded
    by the advertised length. *)
let max_frame = 64 * 1024

(* ------------------------------------------------------------------ *)
(* Request grammar                                                    *)

type edit =
  | Insert of { parent : int; pos : int; xml : string }
  | Delete of { start : int }
  | Retext of { start : int; data : string option }

type command =
  | Ping
  | List_docs
  | Stats
  | Stats_timeseries  (** the ring of periodic registry snapshots *)
  | Metrics of [ `Prom | `Json ]  (** registry exposition *)
  | Deadline of int  (** header: a deadline in ms for the next command *)
  | Trace_hdr  (** header: trace the next QUERY / UPDATE *)
  | Trace_id of string  (** header: trace the next command under this id *)
  | Trace_bg of string
      (** header: record-only trace — store under this id, plain reply *)
  | Trace_get of string  (** a recent trace by id *)
  | Hello of string  (** handshake: the caller identifies itself *)
  | Query of {
      doc : string;
      translator : Blas.translator;
      engine : Blas.engine;
      xpath : string;
    }
  | Update of { doc : string; edit : edit }
  | Updatex of { doc : string; edit : edit }
      (** UPDATE whose reply leads with the invalidation record *)
  | Inval of { doc : string; payload : string }
      (** push a serialized invalidation into [doc]'s query cache *)
  | Sleep of int  (** debug: hold a worker for [ms] (deadline-checked) *)
  | Quit
  | Shutdown

type reply = Ok_payload of string | Err of string | Busy | Timeout | Bye

(** One-line rendering for logs and the REPL (payload shown verbatim). *)
let reply_to_string = function
  | Ok_payload p -> if p = "" then "OK" else "OK\n" ^ p
  | Err msg -> "ERR " ^ msg
  | Busy -> "BUSY"
  | Timeout -> "TIMEOUT"
  | Bye -> "BYE"

let translator_names =
  [
    ("d-labeling", Blas.D_labeling);
    ("split", Blas.Split);
    ("pushup", Blas.Pushup);
    ("unfold", Blas.Unfold);
    ("auto2", Blas.Auto2);
    ("auto", Blas.Auto2);
  ]

let engine_names = [ ("rdbms", Blas.Rdbms); ("twig", Blas.Twig) ]

let translator_of_string s =
  List.assoc_opt (String.lowercase_ascii s) translator_names

let engine_of_string s = List.assoc_opt (String.lowercase_ascii s) engine_names

let translator_to_string t =
  fst (List.find (fun (_, v) -> v = t) translator_names)

let engine_to_string e = fst (List.find (fun (_, v) -> v = e) engine_names)

(* [split_n s n]: the first [n] space-separated tokens of [s] plus the
   untouched rest of the line (which may itself contain spaces) — how
   QUERY carries an arbitrary xpath and INSERT arbitrary XML. *)
let split_n s n =
  let len = String.length s in
  let rec skip i = if i < len && s.[i] = ' ' then skip (i + 1) else i in
  let rec token i = if i < len && s.[i] <> ' ' then token (i + 1) else i in
  let rec go acc i n =
    if n = 0 then Some (List.rev acc, String.sub s i (len - i))
    else
      let i = skip i in
      if i >= len then None
      else
        let j = token i in
        go (String.sub s i (j - i) :: acc) j (n - 1)
  in
  go [] 0 n

let int_arg name s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)

let ( let* ) = Result.bind

let parse_edit ~kw rest =
  match split_n rest 1 with
  | None -> Error (kw ^ ": missing edit verb")
  | Some ([ verb ], rest) -> (
    match String.uppercase_ascii verb with
    | "INSERT" -> (
      match split_n rest 2 with
      | Some ([ parent; pos ], xml) when String.trim xml <> "" ->
        let* parent = int_arg "parent" parent in
        let* pos = int_arg "pos" pos in
        Ok (Insert { parent; pos; xml = String.trim xml })
      | _ ->
        Error (Printf.sprintf "usage: %s <doc> INSERT <parent> <pos> <xml>" kw))
    | "DELETE" -> (
      match split_n rest 1 with
      | Some ([ start ], rest) when String.trim rest = "" ->
        let* start = int_arg "start" start in
        Ok (Delete { start })
      | _ -> Error (Printf.sprintf "usage: %s <doc> DELETE <start>" kw))
    | "RETEXT" -> (
      match split_n rest 1 with
      | Some ([ start ], data) ->
        let* start = int_arg "start" start in
        let data =
          match String.trim data with "" -> None | s -> Some s
        in
        Ok (Retext { start; data })
      | _ -> Error (Printf.sprintf "usage: %s <doc> RETEXT <start> [text]" kw))
    | other -> Error (Printf.sprintf "%s: unknown edit verb %S" kw other))
  | Some _ -> Error (kw ^ ": missing edit verb")

(** [parse_command line] — the request grammar above; the error is the
    human-readable message an [ERR] reply carries. *)
let parse_command line =
  let line = String.trim line in
  match split_n line 1 with
  | None -> Error "empty request"
  | Some ([ verb ], rest) -> (
    let rest_trimmed = String.trim rest in
    match (String.uppercase_ascii verb, rest_trimmed) with
    | "PING", "" -> Ok Ping
    | "LIST", "" -> Ok List_docs
    | "STATS", "" -> Ok Stats
    | "STATS", sub when String.uppercase_ascii sub = "TIMESERIES" ->
      Ok Stats_timeseries
    | "STATS", _ -> Error "usage: STATS [TIMESERIES]"
    | "METRICS", "" -> Ok (Metrics `Prom)
    | "METRICS", sub when String.uppercase_ascii sub = "JSON" ->
      Ok (Metrics `Json)
    | "METRICS", _ -> Error "usage: METRICS [JSON]"
    | "TRACE", "" -> Ok Trace_hdr
    | "TRACE", _ -> (
      match split_n rest_trimmed 1 with
      | Some ([ sub ], id)
        when String.uppercase_ascii sub = "GET" && String.trim id <> "" ->
        Ok (Trace_get (String.trim id))
      | Some ([ sub ], id)
        when String.uppercase_ascii sub = "ID" && String.trim id <> "" ->
        Ok (Trace_id (String.trim id))
      | Some ([ sub ], id)
        when String.uppercase_ascii sub = "BG" && String.trim id <> "" ->
        Ok (Trace_bg (String.trim id))
      | _ -> Error "usage: TRACE [GET|ID|BG <id>]")
    | "HELLO", name when name <> "" && not (String.contains name ' ') ->
      Ok (Hello name)
    | "HELLO", _ -> Error "usage: HELLO <name>"
    | "QUIT", "" -> Ok Quit
    | "SHUTDOWN", "" -> Ok Shutdown
    | "DEADLINE", ms ->
      let* ms = int_arg "DEADLINE" ms in
      if ms < 0 then Error "DEADLINE: must be >= 0" else Ok (Deadline ms)
    | "SLEEP", ms ->
      let* ms = int_arg "SLEEP" ms in
      if ms < 0 then Error "SLEEP: must be >= 0" else Ok (Sleep ms)
    | "QUERY", _ -> (
      match split_n rest 3 with
      | Some ([ doc; translator; engine ], xpath)
        when String.trim xpath <> "" -> (
        match (translator_of_string translator, engine_of_string engine) with
        | None, _ ->
          Error (Printf.sprintf "QUERY: unknown translator %S" translator)
        | _, None -> Error (Printf.sprintf "QUERY: unknown engine %S" engine)
        | Some translator, Some engine ->
          Ok (Query { doc; translator; engine; xpath = String.trim xpath }))
      | _ -> Error "usage: QUERY <doc> <translator> <engine> <xpath>")
    | "UPDATE", _ -> (
      match split_n rest 1 with
      | Some ([ doc ], rest) ->
        let* edit = parse_edit ~kw:"UPDATE" rest in
        Ok (Update { doc; edit })
      | _ -> Error "usage: UPDATE <doc> <INSERT|DELETE|RETEXT> ...")
    | "UPDATEX", _ -> (
      match split_n rest 1 with
      | Some ([ doc ], rest) ->
        let* edit = parse_edit ~kw:"UPDATEX" rest in
        Ok (Updatex { doc; edit })
      | _ -> Error "usage: UPDATEX <doc> <INSERT|DELETE|RETEXT> ...")
    | "INVAL", _ -> (
      match split_n rest 1 with
      | Some ([ doc ], payload) when String.trim payload <> "" ->
        Ok (Inval { doc; payload = String.trim payload })
      | _ -> Error "usage: INVAL <doc> <invalidation>")
    | other, _ -> Error (Printf.sprintf "unknown command %S" other))
  | Some _ -> Error "empty request"

let edit_to_line kw doc = function
  | Insert { parent; pos; xml } ->
    Printf.sprintf "%s %s INSERT %d %d %s" kw doc parent pos xml
  | Delete { start } -> Printf.sprintf "%s %s DELETE %d" kw doc start
  | Retext { start; data } ->
    Printf.sprintf "%s %s RETEXT %d%s" kw doc start
      (match data with None -> "" | Some s -> " " ^ s)

(** [command_to_line c] — the wire form, newline excluded (the client's
    send adds it). *)
let command_to_line = function
  | Ping -> "PING"
  | List_docs -> "LIST"
  | Stats -> "STATS"
  | Stats_timeseries -> "STATS TIMESERIES"
  | Metrics `Prom -> "METRICS"
  | Metrics `Json -> "METRICS JSON"
  | Quit -> "QUIT"
  | Shutdown -> "SHUTDOWN"
  | Deadline ms -> Printf.sprintf "DEADLINE %d" ms
  | Trace_hdr -> "TRACE"
  | Trace_id id -> "TRACE ID " ^ id
  | Trace_bg id -> "TRACE BG " ^ id
  | Trace_get id -> "TRACE GET " ^ id
  | Hello name -> "HELLO " ^ name
  | Sleep ms -> Printf.sprintf "SLEEP %d" ms
  | Query { doc; translator; engine; xpath } ->
    Printf.sprintf "QUERY %s %s %s %s" doc
      (translator_to_string translator)
      (engine_to_string engine) xpath
  | Update { doc; edit } -> edit_to_line "UPDATE" doc edit
  | Updatex { doc; edit } -> edit_to_line "UPDATEX" doc edit
  | Inval { doc; payload } -> Printf.sprintf "INVAL %s %s" doc payload

(* ------------------------------------------------------------------ *)
(* Invalidation records on the wire                                    *)

(** [invalidation_to_string inv] — one space-free-field line:
    [full=<0|1> schema=<0|1> plabels=<p,p,...|->], P-labels in
    decimal. *)
let invalidation_to_string (inv : Blas.Update.invalidation) =
  Printf.sprintf "full=%d schema=%d plabels=%s"
    (if inv.Blas.Update.inv_full then 1 else 0)
    (if inv.Blas.Update.inv_schema_changed then 1 else 0)
    (match inv.Blas.Update.inv_plabels with
    | [] -> "-"
    | ps -> String.concat "," (List.map string_of_int ps))

(** Inverse of {!invalidation_to_string}; [None] on malformed input. *)
let invalidation_of_string s =
  let field name tok =
    let prefix = name ^ "=" in
    let pl = String.length prefix in
    if String.length tok > pl && String.sub tok 0 pl = prefix then
      Some (String.sub tok pl (String.length tok - pl))
    else None
  in
  match String.split_on_char ' ' (String.trim s) with
  | [ f; sc; pl ] -> (
    match (field "full" f, field "schema" sc, field "plabels" pl) with
    | Some f, Some sc, Some pl -> (
      let bool_of = function
        | "0" -> Some false
        | "1" -> Some true
        | _ -> None
      in
      let label_of s =
        if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then
          int_of_string_opt s
        else None
      in
      let plabels_of = function
        | "-" -> Some []
        | s ->
          List.fold_right
            (fun tok acc ->
              match (label_of tok, acc) with
              | Some p, Some ps -> Some (p :: ps)
              | _ -> None)
            (String.split_on_char ',' s) (Some [])
      in
      match (bool_of f, bool_of sc, plabels_of pl) with
      | Some inv_full, Some inv_schema_changed, Some inv_plabels ->
        Some { Blas.Update.inv_full; inv_schema_changed; inv_plabels }
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Bounded line IO over a file descriptor                             *)

(** A buffered reader/writer over a socket with a hard frame bound —
    [input_line] on a channel would buffer an unbounded hostile line. *)
module Io = struct
  type t = {
    fd : Unix.file_descr;
    buf : Buffer.t;  (** bytes read but not yet consumed *)
    chunk : Bytes.t;
  }

  let of_fd fd = { fd; buf = Buffer.create 512; chunk = Bytes.create 4096 }

  let fd t = t.fd

  (* Refills from the socket; [`Eof] when the peer closed. *)
  let refill t =
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> `Eof
    | n ->
      Buffer.add_subbytes t.buf t.chunk 0 n;
      `Filled
    | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> `Eof

  let take t n =
    let s = Buffer.sub t.buf 0 n in
    let rest = Buffer.sub t.buf n (Buffer.length t.buf - n) in
    Buffer.clear t.buf;
    Buffer.add_string t.buf rest;
    s

  let find_newline t =
    let contents = Buffer.contents t.buf in
    String.index_opt contents '\n'

  (** [read_line t ~max] — the next frame, terminator stripped;
      [`Too_long] once more than [max] bytes arrive without one (the
      connection cannot be resynchronized after that). *)
  let rec read_line t ~max =
    match find_newline t with
    | Some i ->
      let line = take t (i + 1) in
      let line = String.sub line 0 i in
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      `Line line
    | None ->
      if Buffer.length t.buf > max then `Too_long
      else (
        (* A partial line at EOF is dropped: half a frame is not a
           request. *)
        match refill t with `Eof -> `Eof | `Filled -> read_line t ~max)

  (** [read_exact t n] — exactly [n] payload bytes, or [None] on EOF. *)
  let rec read_exact t n =
    if Buffer.length t.buf >= n then Some (take t n)
    else
      match refill t with `Eof -> None | `Filled -> read_exact t n

  (** Writes the whole string (loops over partial writes).
      @raise Unix.Unix_error when the peer is gone. *)
  let write t s =
    let len = String.length s in
    let rec go off =
      if off < len then
        let n = Unix.write_substring t.fd s off (len - off) in
        go (off + n)
    in
    go 0
end

(* ------------------------------------------------------------------ *)
(* Reply framing                                                      *)

let write_reply io = function
  | Ok_payload payload ->
    Io.write io (Printf.sprintf "OK %d\n" (String.length payload));
    Io.write io payload;
    Io.write io "\n"
  | Err msg ->
    (* The message must stay one frame: newlines would desynchronize
       the stream. *)
    let msg = String.map (function '\n' | '\r' -> ' ' | c -> c) msg in
    Io.write io (Printf.sprintf "ERR %s\n" msg)
  | Busy -> Io.write io "BUSY\n"
  | Timeout -> Io.write io "TIMEOUT\n"
  | Bye -> Io.write io "BYE\n"

(** [read_reply io] — the peer's next reply; [Error] describes a
    protocol violation or EOF. *)
let read_reply io =
  match Io.read_line io ~max:max_frame with
  | `Eof -> Error "connection closed"
  | `Too_long -> Error "oversized reply line"
  | `Line line -> (
    match split_n line 1 with
    | Some ([ "OK" ], len) -> (
      match int_of_string_opt (String.trim len) with
      | None -> Error (Printf.sprintf "malformed OK length %S" len)
      | Some len when len < 0 -> Error "negative OK length"
      | Some len -> (
        match Io.read_exact io (len + 1) with
        | None -> Error "connection closed mid-payload"
        | Some payload_nl ->
          if payload_nl.[len] <> '\n' then Error "missing payload terminator"
          else Ok (Ok_payload (String.sub payload_nl 0 len))))
    | Some ([ "ERR" ], msg) -> Ok (Err (String.trim msg))
    | Some ([ "BUSY" ], "") -> Ok Busy
    | Some ([ "TIMEOUT" ], "") -> Ok Timeout
    | Some ([ "BYE" ], "") -> Ok Bye
    | _ -> Error (Printf.sprintf "malformed reply %S" line))
