(** IC3/PDR: unbounded SAT-based safety checking by incremental induction.

    The engine maintains a monotone sequence of frames [F_0 = init, F_1,
    F_2, ...], each an over-approximation of the states reachable in that
    many steps, represented as clause sets over the state bits
    (delta-encoded: a clause lives at the highest frame it is proven for).
    Each major iteration extends the frontier, extracts
    counterexamples-to-induction (CTIs) as state minterms from SAT models,
    blocks them recursively at earlier frames, generalizes each blocked
    cube, and finally pushes clauses forward; two adjacent frames becoming
    equal is an inductive invariant, i.e. a proof.

    Generalization starts from the solver's failed-assumption core
    ({!Solver.failed_assumptions}): a blocked cube is cut to the literals
    whose next-state assumptions the refutation used, then each remaining
    literal is tried for a drop under relative induction, and every
    successful drop cuts the cube to that query's core again (Bradley,
    VMCAI 2011; Een, Mishchenko and Brayton, FMCAD 2011). A cut that would
    re-admit the initial state keeps the cube's first literal that
    disagrees with it.

    Where plain k-induction gives up (the invariant needs strengthening),
    IC3 learns exactly the strengthening clauses it needs — this is the
    portfolio's unbounded fallback for ["kind-inconclusive"] obligations.

    All SAT queries run on the in-tree CDCL solver ({!Solver}). By default
    one persistent solver serves every query of a run: the transition cone
    is encoded once, frame membership is selected by per-frame activation
    literals assumed per query, and per-query block cubes get one-shot
    activation literals retired right after the solve — so learnt clauses
    accumulate across the thousands of relative-induction queries.
    [~incremental:false] keeps a fresh solver and Tseitin encoding per
    query as a differential oracle, with the query's target (the bad
    literal or the successor cube) assumed rather than asserted, so both
    modes generalize from cores by the same algorithm (they may explore
    different models, so frame counts can differ; verdicts agree).
    The cooperative [deadline] is polled at every frame, obligation, and
    generalization step, and inside the solver via [should_stop]. Blocking,
    generalization and propagation run in the telemetry spans
    [ic3/block], [ic3/generalize] and [ic3/propagate]. *)

type stats = {
  frames : int;  (** highest frame opened (or CTI chain depth on refutation) *)
  clauses : int;  (** frame clauses learned, post-generalization *)
  ctis : int;  (** counterexamples-to-induction blocked *)
  sat_calls : int;
  sat : Solver.stats;  (** summed over every query *)
  reused : int;
      (** queries answered by the warm persistent solver (0 in scratch
          mode) *)
}

type reason =
  | Frames_exhausted  (** [max_frames] reached without a fixpoint *)
  | Solver_limit  (** a query hit [max_conflicts] or was cancelled *)

type cube = (int * bool) list
(** A conjunction of state-bit literals [(bit, value)], sorted by bit. The
    bits are the flattened netlist's state-bit ids ({!Rtl.Bitblast.flatten}),
    the numbering {!Sym.cur_var} indexes. *)

type result =
  | Proved of stats * cube list
      (** with the fixpoint frame: the inductive invariant is the
          conjunction of the negations of these cubes. It holds initially,
          is preserved by every transition under the constraint, and
          implies the property where the constraint holds. *)
  | Violation of Trace.t * stats
  | Inconclusive of reason * stats

val check :
  ?incremental:bool ->
  ?max_conflicts:int ->
  ?max_frames:int ->
  ?deadline:Deadline.t ->
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  result
(** Decide whether the 1-bit [ok_signal] holds in every reachable state.
    [max_frames] (default 32) bounds the frame sequence; [max_conflicts]
    bounds each individual SAT query. A refutation's CTI chain is a
    concrete reset-to-bad path; the trace is materialized by re-running
    {!Bmc.check} at exactly the chain's depth, so [Violation] traces are
    replay-valid in the same format as every other engine's. Raises
    {!Deadline.Expired} when the deadline fires between queries. *)
