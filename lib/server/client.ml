(** The OCaml client for the wire protocol: one blocking connection,
    one request/reply exchange at a time.  The typed wrappers cover the
    client verbs; {!request} sends an already-formed command (the REPL
    path sends raw lines with {!raw}).  {!send} and {!recv} are the two
    halves of {!request}, for callers that wait on several connections
    at once (the router selects on {!fd} between them). *)

type t = { fd : Unix.file_descr; io : Proto.Io.t }

(** [parse_endpoint s] — ["host:port"] or bare ["port"], defaulting the
    host to 127.0.0.1. *)
let parse_endpoint s =
  match String.rindex_opt s ':' with
  | Some i ->
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
    | Some p -> ((if host = "" then "127.0.0.1" else host), p)
    | None -> invalid_arg (Printf.sprintf "bad endpoint %S" s))
  | None -> (
    match int_of_string_opt s with
    | Some p -> ("127.0.0.1", p)
    | None -> invalid_arg (Printf.sprintf "bad endpoint %S" s))

let connect ?(host = "127.0.0.1") port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     (* Requests are small and latency-bound; never trade a round trip
        for Nagle coalescing. *)
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  { fd; io = Proto.Io.of_fd fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_client ?host port f =
  let t = connect ?host port in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

exception Closed

let fd t = t.fd

(** [send_line t line] — send one raw line without awaiting a reply
    (header lines like [DEADLINE] carry no reply frame). *)
let send_line t line = Proto.Io.write t.io (line ^ "\n")

(** [send ?deadline_ms ?headers t cmd] — write the header lines
    ([headers], then a DEADLINE when [deadline_ms] is given) and the
    command in one write, without awaiting the reply. *)
let send ?deadline_ms ?(headers = []) t cmd =
  let deadline = Option.map (fun ms -> Proto.Deadline ms) deadline_ms in
  Proto.Io.write t.io
    (String.concat ""
       (List.map
          (fun c -> Proto.command_to_line c ^ "\n")
          (headers @ Option.to_list deadline @ [ cmd ])))

(** [recv t] — read one reply frame.
    @raise Closed when the server hung up. *)
let recv t =
  match Proto.read_reply t.io with
  | Ok reply -> reply
  | Error msg when String.starts_with ~prefix:"connection closed" msg ->
    raise Closed
  | Error msg -> failwith ("bad reply frame: " ^ msg)

(** [raw t line] — send one raw request line, read one reply frame.
    @raise Closed when the server hung up. *)
let raw t line =
  send_line t line;
  recv t

(** [request ?deadline_ms t cmd] — one exchange: {!send}, then {!recv}. *)
let request ?deadline_ms t cmd =
  send ?deadline_ms t cmd;
  recv t

let ping t =
  match request t Proto.Ping with
  | Proto.Ok_payload "pong" -> ()
  | reply -> failwith ("unexpected PING reply: " ^ Proto.reply_to_string reply)

let list_docs t =
  match request t Proto.List_docs with
  | Proto.Ok_payload "" -> []
  | Proto.Ok_payload p -> String.split_on_char '\n' p
  | reply -> failwith ("unexpected LIST reply: " ^ Proto.reply_to_string reply)

let stats t =
  match request t Proto.Stats with
  | Proto.Ok_payload p -> p
  | reply -> failwith ("unexpected STATS reply: " ^ Proto.reply_to_string reply)

let metrics ?(json = false) t =
  match request t (Proto.Metrics (if json then `Json else `Prom)) with
  | Proto.Ok_payload p -> p
  | reply ->
    failwith ("unexpected METRICS reply: " ^ Proto.reply_to_string reply)

let timeseries t =
  match request t Proto.Stats_timeseries with
  | Proto.Ok_payload p -> p
  | reply ->
    failwith
      ("unexpected STATS TIMESERIES reply: " ^ Proto.reply_to_string reply)

let trace_get t id = request t (Proto.Trace_get id)

let hello t name =
  match request t (Proto.Hello name) with
  | Proto.Ok_payload p -> (
    match String.split_on_char '\n' p with
    | first :: docs -> (
      match String.split_on_char ' ' first with
      | [ "shard"; shard ] -> (shard, List.filter (fun d -> d <> "") docs)
      | _ -> failwith ("malformed HELLO payload: " ^ first))
    | [] -> failwith "empty HELLO payload")
  | reply -> failwith ("unexpected HELLO reply: " ^ Proto.reply_to_string reply)

(* Optional trace headers shared by the request wrappers: [?trace]
   arms an inline trace; [?trace_id]/[?trace_bg] arm the id-carrying
   forms the router uses on its shard hops. *)
let trace_headers ~trace ~trace_id ~trace_bg =
  (if trace then [ Proto.Trace_hdr ] else [])
  @ Option.to_list (Option.map (fun id -> Proto.Trace_id id) trace_id)
  @ Option.to_list (Option.map (fun id -> Proto.Trace_bg id) trace_bg)

let query ?deadline_ms ?(trace = false) ?trace_id ?trace_bg t ~doc ~translator
    ~engine xpath =
  send ?deadline_ms
    ~headers:(trace_headers ~trace ~trace_id ~trace_bg)
    t
    (Proto.Query { doc; translator; engine; xpath });
  recv t

let update ?deadline_ms ?(trace = false) ?trace_id ?trace_bg t ~doc edit =
  send ?deadline_ms
    ~headers:(trace_headers ~trace ~trace_id ~trace_bg)
    t
    (Proto.Update { doc; edit });
  recv t

(** [updatex_reply reply] — split an [UPDATEX] reply into the ordinary
    UPDATE payload and the invalidation record the server prefixed. *)
let updatex_reply = function
  | Proto.Ok_payload p -> (
    match String.index_opt p '\n' with
    | None -> (Proto.Ok_payload p, None)
    | Some i ->
      let inv = Proto.invalidation_of_string (String.sub p 0 i) in
      let rest = String.sub p (i + 1) (String.length p - i - 1) in
      (Proto.Ok_payload rest, inv))
  | reply -> (reply, None)

let sleep ?deadline_ms t ms = request ?deadline_ms t (Proto.Sleep ms)

let quit t =
  match request t Proto.Quit with
  | Proto.Bye -> close t
  | reply -> failwith ("unexpected QUIT reply: " ^ Proto.reply_to_string reply)

let shutdown t =
  match request t Proto.Shutdown with
  | Proto.Bye -> close t
  | reply ->
    failwith ("unexpected SHUTDOWN reply: " ^ Proto.reply_to_string reply)
