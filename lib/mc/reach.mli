(** BDD-based unbounded model checking by reachability analysis.

    The invariant to check is a 1-bit "ok" function over current-state and
    input variables (typically a {!Psl.Monitor} [invariant_ok] wire). A state
    is bad when some input valuation makes it false. Forward traversal
    explores from reset; backward traversal regresses from the bad states;
    the combined mode (the paper's in-house engine does "combined forward and
    backward traversal") steps both and stops at whichever converges first. *)

type stats = {
  iterations : int;
  bdd_nodes : int;  (** arena size at completion — a monotone work measure *)
  peak_set_size : int;  (** largest reached/backward set representation *)
}

type result =
  | Proved of stats
  | Failed of Trace.t * stats

val image : ?constrain:Bdd.t -> Sym.t -> Bdd.t -> Bdd.t
(** Forward image over current-state variables, inputs quantified, computed
    with early-quantification scheduling over the partitioned transition
    relation. [constrain] (over input variables) restricts the explored
    input space — the engine-level form of invariant input assumptions. *)

val pre_image : ?constrain:Bdd.t -> Sym.t -> Bdd.t -> Bdd.t
(** Backward image via functional substitution. *)

val bad_states : ?constrain:Bdd.t -> Sym.t -> ok:Bdd.t -> Bdd.t
(** States from which some (constraint-satisfying) input makes [ok] false. *)

val reachable : ?constrain:Bdd.t -> Sym.t -> Bdd.t
(** Full reachable state set (tests and state-count reporting). *)

val trace_from_rings : ?constrain:Bdd.t -> Sym.t -> ok:Bdd.t -> Bdd.t list -> Trace.t
(** Build a counterexample from forward onion rings (oldest first, the last
    ring containing a bad state) — shared with the POBDD engine. *)

val check_forward :
  ?constrain:Bdd.t -> ?deadline:Deadline.t -> Sym.t -> ok:Bdd.t -> result

val check_backward :
  ?constrain:Bdd.t -> ?deadline:Deadline.t -> Sym.t -> ok:Bdd.t -> result

val check_combined :
  ?constrain:Bdd.t -> ?deadline:Deadline.t -> Sym.t -> ok:Bdd.t -> result
(** Each iteration tests the meet of both sides, the backward pre-image,
    then the forward image, whose relation is built at its first use: an
    inductive invariant costs one pre-image, and a proof takes the fewer of
    {!check_forward}'s and {!check_backward}'s [iterations]. All three poll
    [deadline] once per iteration and raise {!Deadline.Expired} when it
    passes; counterexample extraction after a violation is not interrupted. *)
