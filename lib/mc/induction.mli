(** k-induction: an unbounded SAT-based proof engine.

    For increasing [k], the base case (no violation within [k] cycles from
    reset — plain BMC) and the inductive step (any [k] consecutive
    property-satisfying states, starting anywhere, can only step to a
    satisfying state) are checked. If both hold, the property is proved for
    all time; if the base case fails, the BMC counterexample is returned. *)

type stats = {
  k : int;  (** the depth at which the result was established *)
  cnf_vars : int;
  cnf_clauses : int;
  sat : Solver.stats;  (** summed over every base-case and step-case solve *)
  reused : int;
      (** solves answered by a warm solver (0 in scratch mode) *)
}

type result =
  | Proved_by_induction of stats
  | Violation of Trace.t * stats
  | Inconclusive of stats
      (** [max_k] reached with the step case still failing, or the solver
          budget ran out *)

val check :
  ?incremental:bool ->
  ?max_conflicts:int ->
  ?max_k:int ->
  ?deadline:Deadline.t ->
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  result
(** [max_k] defaults to 20. The inductive step is the plain variant (no
    state-uniqueness constraints), which is sound but may stay inconclusive
    on properties that need strengthening. By default ([incremental], on)
    one live base-case unroller and one live step-case solver are kept for
    the whole run, so iteration [k+1] only encodes the new frame;
    [~incremental:false] rebuilds both from scratch at every [k] with
    identical queries and verdicts. [deadline] is threaded into every
    base-case BMC run and step-case SAT search; expiry raises
    {!Deadline.Expired} between frames and yields {!Inconclusive} from
    within a search. *)
