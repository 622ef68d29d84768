(** SAT-based bounded model checking: unroll the netlist one time frame at a
    time and ask the CDCL solver for a violating path at each depth.

    The checker is incremental by default: one live solver per obligation,
    with depth [k+1] extending depth [k]'s CNF (per-frame bad literals are
    solved as assumptions, so nothing needs retiring) and every learnt
    clause retained. [~incremental:false] rebuilds the encoding and solver
    from scratch at every depth — same queries, same verdicts, used as the
    differential-testing oracle. *)

type stats = {
  depth : int;
  cnf_vars : int;
  cnf_clauses : int;
  sat : Solver.stats;  (** summed over every per-depth solve *)
  reused : int;
      (** solves answered by a warm solver (0 in scratch mode) *)
}

type result =
  | No_violation_upto of int * stats  (** UNSAT at every depth up to this *)
  | Violation of Trace.t * stats
  | Inconclusive of stats  (** solver conflict budget exhausted *)

val check :
  ?incremental:bool ->
  ?max_conflicts:int ->
  ?deadline:Deadline.t ->
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  depth:int ->
  result
(** Checks whether [ok_signal] (1 bit) can be 0 in any of cycles
    [0 .. depth], by iterative deepening: one solve per depth, so a
    violation is found at its minimum depth. When [constraint_signal] is
    given (a 1-bit combinational function of the inputs), it is asserted in
    every unrolled frame, so only constraint-satisfying stimulus is
    considered. [deadline] is polled once per depth (raising
    {!Deadline.Expired}) and passed to the SAT search as its [should_stop]
    callback (yielding {!Inconclusive}). [max_conflicts] bounds each
    per-depth solve. *)

(** {1 Incremental context}

    Exposed so k-induction (base case) and the differential test suite can
    drive the per-depth queries directly. *)

type inc

val create_inc :
  ?constraint_signal:string -> Rtl.Netlist.t -> ok_signal:string -> inc

val solve_depth :
  ?max_conflicts:int ->
  ?should_stop:(unit -> bool) ->
  inc ->
  depth:int ->
  [ `No_violation | `Violation of Trace.t | `Unknown ] * Solver.stats
(** Solve "bad at exactly [depth]" (frames [<depth] must already have been
    proven clean for the bounded-violation reading), extending the live
    encoding as needed. Returns the per-call solver stats. The encoding and
    the solve are recorded as telemetry spans of category ["sat"], named
    ["encode"] and ["search"]. *)

val inc_cnf_vars : inc -> int
val inc_cnf_clauses : inc -> int
