(** IC3/PDR: unbounded SAT-based safety checking by incremental induction.

    The engine maintains a monotone sequence of frames [F_0 = init, F_1,
    F_2, ...], each an over-approximation of the states reachable in that
    many steps, represented as clause sets over the state bits
    (delta-encoded: a clause lives at the highest frame it is proven for).
    Each major iteration extends the frontier, extracts
    counterexamples-to-induction (CTIs) as state minterms from SAT models,
    blocks them recursively at earlier frames, generalizes each blocked
    cube by literal dropping under relative induction, and finally pushes
    clauses forward; two adjacent frames becoming equal is an inductive
    invariant, i.e. a proof.

    Where plain k-induction gives up (the invariant needs strengthening),
    IC3 learns exactly the strengthening clauses it needs — this is the
    portfolio's unbounded fallback for ["kind-inconclusive"] obligations.

    All SAT queries run on the in-tree CDCL solver ({!Solver}). By default
    one persistent solver serves every query of a run: the transition cone
    is encoded once, frame membership is selected by per-frame activation
    literals assumed per query, and per-query block cubes get one-shot
    activation literals retired right after the solve — so learnt clauses
    accumulate across the thousands of relative-induction queries.
    [~incremental:false] keeps the original fresh-Tseitin-per-query path
    as a differential oracle (the two modes answer the same queries but may
    explore different models, so frame counts can differ; verdicts agree).
    The cooperative [deadline] is polled at every frame, obligation, and
    generalization step, and inside the solver via [should_stop]. *)

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

type result =
  | Proved of stats
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
