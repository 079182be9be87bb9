(** The blas wire protocol: newline-framed text requests,
    length-prefixed replies.  See {!val:max_frame} for the frame bound
    and the implementation header for the full grammar:

    {v
      PING | LIST | STATS | QUIT | SHUTDOWN
      STATS TIMESERIES | METRICS | METRICS JSON
      DEADLINE <ms> | TRACE | TRACE ID <id> | TRACE BG <id> | TRACE GET <id>
      HELLO <name>
      QUERY <doc> <translator> <engine> <xpath...>
      UPDATE <doc> INSERT <parent> <pos> <xml...>
      UPDATE <doc> DELETE <start>
      UPDATE <doc> RETEXT <start> [text...]
      UPDATEX <doc> <INSERT|DELETE|RETEXT> ...
      INVAL <doc> <invalidation>
      SLEEP <ms>
    v}

    Headers ([DEADLINE], [TRACE], [TRACE ID], [TRACE BG]) carry no
    reply and are one-shot: the next non-header frame consumes them,
    whatever it is, and only an admitted request applies them.

    Replies: [OK <len>\n<payload>\n], [ERR <msg>], [BUSY], [TIMEOUT],
    [BYE]. *)

(** Longest accepted request line, terminator included. *)
val max_frame : int

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
  | Deadline of int
      (** header: deadline in ms; the next non-header frame consumes it *)
  | Trace_hdr  (** header: trace; the next non-header frame consumes it *)
  | Trace_id of string
      (** header: trace under this id; the next non-header frame
          consumes it *)
  | Trace_bg of string
      (** header: record-only trace — stored under this id, plain reply
          (the router's fan-out form: merging needs answer frames); the
          next non-header frame consumes it *)
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
      (** UPDATE whose reply's first line is the serialized §11
          invalidation record (router → replica fan-out material) *)
  | Inval of { doc : string; payload : string }
      (** apply a pushed invalidation to [doc]'s query cache *)
  | Sleep of int  (** debug servers only: hold a worker for [ms] *)
  | Quit
  | Shutdown

type reply = Ok_payload of string | Err of string | Busy | Timeout | Bye

(** One-line rendering for logs and the REPL (payload shown verbatim). *)
val reply_to_string : reply -> string

(** The one translator name table (wire and CLI): [auto] is an alias
    that parses to [Auto2], listed after [auto2] so that
    {!translator_to_string} [Auto2] is ["auto2"]. *)
val translator_names : (string * Blas.translator) list

val engine_names : (string * Blas.engine) list

val translator_of_string : string -> Blas.translator option

val engine_of_string : string -> Blas.engine option

val translator_to_string : Blas.translator -> string

val engine_to_string : Blas.engine -> string

(** [parse_command line] — parse one request frame; the error is the
    message the [ERR] reply carries. *)
val parse_command : string -> (command, string) result

(** The wire form of a command, newline excluded. *)
val command_to_line : command -> string

(** [invalidation_to_string inv] — one-line exact encoding of a §11
    precise invalidation record
    ([full=<0|1> schema=<0|1> plabels=<p,p,...|->]);
    what [UPDATEX] replies lead with and [INVAL] carries. *)
val invalidation_to_string : Blas.Update.invalidation -> string

(** Inverse of {!invalidation_to_string}; [None] on malformed input. *)
val invalidation_of_string : string -> Blas.Update.invalidation option

(** Bounded line IO over a socket — [input_line] on a channel would
    buffer an unbounded hostile line. *)
module Io : sig
  type t

  val of_fd : Unix.file_descr -> t

  val fd : t -> Unix.file_descr

  (** The next frame, terminator stripped; [`Too_long] once more than
      [max] bytes arrive with no terminator (the stream cannot be
      resynchronized after that); a partial line at EOF is [`Eof]. *)
  val read_line : t -> max:int -> [ `Line of string | `Eof | `Too_long ]

  (** Exactly [n] bytes, or [None] on EOF. *)
  val read_exact : t -> int -> string option

  (** Writes the whole string.
      @raise Unix.Unix_error when the peer is gone. *)
  val write : t -> string -> unit
end

(** Serializes one reply onto the socket.
    @raise Unix.Unix_error when the peer is gone. *)
val write_reply : Io.t -> reply -> unit

(** Reads the peer's next reply; [Error] is a protocol violation or
    EOF. *)
val read_reply : Io.t -> (reply, string) result
