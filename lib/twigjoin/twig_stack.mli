(** A holistic twig join over {!Pattern} trees: TwigStack as Bruno,
    Koudas & Srivastava (SIGMOD 2002, Algorithm 2) formulate it — the
    engine the paper uses as its second query engine.

    Two phases: [getNext] advances the streams selectively, skipping
    head elements that provably participate in no solution, and pushes
    an element only while its parent's stack holds an open interval;
    then bottom-up and top-down semijoin sweeps over the pushed
    candidates leave exactly the elements participating in at least one
    full embedding.  The test suite checks the answers against brute
    force. *)

type stats = {
  visited : int;  (** total stream elements read *)
  candidates : int;  (** elements pushed in phase 1 *)
  results : int;
}

(** [run pattern] executes the twig join; returns the start positions of
    the output node's bindings (sorted, duplicate-free) and statistics.
    @raise Invalid_argument if the pattern has no output node. *)
val run : Pattern.node -> int list * stats
