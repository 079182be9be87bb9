(** Cooperative cancellation for requests that carry a deadline: the
    token a request carries so that its plan, which runs sequentially
    on the worker that admitted it, stops between operators once the
    deadline passes. *)

(** Raised by {!Token.check} on a cancelled or expired token. *)
exception Cancelled

(** Cooperative cancellation tokens.  A token is cancelled explicitly
    ({!Token.cancel}) or implicitly by its [expired] predicate — the
    deadline hook: a server arms it with "now past the request's
    deadline".  Checking is cheap (one atomic load plus the predicate),
    so long computations can poll at every operator boundary. *)
module Token : sig
  type t

  (** [create ?expired ()] — a fresh token; [expired] (default: never)
      is consulted on every {!cancelled} check. *)
  val create : ?expired:(unit -> bool) -> unit -> t

  (** A token that is never cancelled. *)
  val none : t

  val cancel : t -> unit

  val cancelled : t -> bool

  (** @raise Cancelled when the token is cancelled or expired. *)
  val check : t -> unit
end
