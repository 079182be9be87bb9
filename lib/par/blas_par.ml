(** Cooperative cancellation: the deadline tokens a server arms per
    request and long computations poll at operator boundaries. *)

exception Cancelled

(** Cancellation tokens: an atomic flag plus an optional [expired]
    predicate (the deadline hook).  {!Token.check} is the cooperative
    cancellation point long computations poll at operator boundaries. *)
module Token = struct
  type t = { flag : bool Atomic.t; expired : unit -> bool }

  let create ?(expired = fun () -> false) () =
    { flag = Atomic.make false; expired }

  let none = create ()

  let cancel t = Atomic.set t.flag true

  let cancelled t = Atomic.get t.flag || t.expired ()

  let check t = if cancelled t then raise Cancelled
end
