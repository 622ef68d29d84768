(** A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, VSIDS-style activity decisions, and
    geometric restarts. Used as the bounded-model-checking backend (the
    "various formal solver algorithms" of the paper's commercial tool).

    The solver is incremental: {!create} makes a persistent solver whose
    clause database, learnt clauses, variable activities and saved phases
    survive across {!solve_assuming} calls, so the model checkers extend a
    live CNF (depth [k+1] reuses everything learnt at depth [k]) instead of
    rebuilding it. Restarts backtrack to the assumption prefix — never
    below — and no warm-start state is reset between calls. *)

type result =
  | Sat of bool array  (** [model.(v-1)] is the value of DIMACS variable [v] *)
  | Unsat
  | Unknown  (** conflict budget exhausted, or [should_stop] fired *)

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;  (** learnt clauses added by conflict analysis *)
}
(** Per-solve work counters: a deterministic work measure for a single
    [solve_stats] / [solve_assuming_stats] call. The counters live in the
    solver state, so concurrent solves on different domains never observe
    each other. *)

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum: the work of two solves, or of a whole engine run. *)

(** {1 Incremental interface} *)

type t
(** A persistent solver: clause database, learnt clauses, activities and
    phases are retained across calls. Not thread-safe; use one [t] per
    obligation/domain. *)

val create : unit -> t

val add_clause : t -> int list -> unit
(** Add a problem clause (DIMACS literals, i.e. nonzero ints where [-v]
    is the negation of variable [v]). Variables are allocated on demand.
    Must be called between solves (the solver is at decision level 0).
    Clauses are simplified against permanent root-level assignments; an
    empty clause makes the solver permanently unsatisfiable. *)

val solve_assuming :
  ?max_conflicts:int -> ?should_stop:(unit -> bool) -> t -> int list -> result
(** [solve_assuming t assumptions] decides satisfiability of the clause
    database conjoined with the assumption literals (DIMACS), without
    committing them: the assumptions are retracted when the call returns,
    while everything learnt is kept. [Unsat] means unsat {e under these
    assumptions} (or absolutely, if the database itself is contradictory).
    [max_conflicts] and [should_stop] are per-call budgets as in
    {!solve}. *)

val solve_assuming_stats :
  ?max_conflicts:int -> ?should_stop:(unit -> bool) -> t -> int list ->
  result * stats
(** Like {!solve_assuming}, plus the work counters for this call alone. *)

val num_vars : t -> int
(** Highest DIMACS variable seen so far. Models index [0 .. num_vars-1]. *)

val num_clauses : t -> int
(** Problem clauses added via {!add_clause} (learnt clauses excluded). *)

val solves : t -> int
(** Number of [solve_assuming] calls made on this solver so far. *)

(** {1 One-shot interface}

    Each call builds a fresh solver, so repeated solves of the same CNF are
    bit-for-bit deterministic. *)

val solve : ?max_conflicts:int -> ?should_stop:(unit -> bool) -> Cnf.t -> result
(** [max_conflicts] defaults to unlimited. [should_stop] is a cooperative
    cancellation callback (e.g. a wall-clock deadline), polled every ~1000
    search steps; when it returns [true] the search gives up with
    {!Unknown}. *)

val solve_stats :
  ?max_conflicts:int -> ?should_stop:(unit -> bool) -> Cnf.t ->
  result * stats
(** Like {!solve}, but also returns the work counters for this solve. *)
