(** A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, move-to-front queue decisions, and
    geometric restarts. Used as the bounded-model-checking backend (the
    "various formal solver algorithms" of the paper's commercial tool).

    The solver is incremental: {!create} makes a persistent solver whose
    clause database, learnt clauses, decision queue and saved phases
    survive across {!solve_assuming} calls, so the model checkers extend a
    live CNF (depth [k+1] reuses everything learnt at depth [k]) instead of
    rebuilding it. Restarts backtrack to the assumption prefix — never
    below — and no warm-start state is reset between calls.

    Storage. Every clause, problem or learnt, sits in one growable [int]
    arena as a header (its length, then one watch-list link for each of
    its two watched literals) followed by its literals; a clause is named
    by its offset. The clauses watching a literal form a chain threaded
    through those links. Clause intake and conflict analysis work in one
    reusable scratch buffer, so propagation, intake and analysis allocate
    nothing. When a literal becomes false its chain is walked from the head
    and each clause is pushed back onto the head of the chain it stays or
    moves to: the order in which re-consing a list of watches would rebuild
    the chains. The search is defined by that order (it decides which
    clause propagates first, hence every reason, learnt clause and later
    decision), so it is kept; as are the ascending literal order of stored
    problem clauses and the literal order of learnt clauses, which analysis
    and the choice of watches read.

    Decisions. The variables sit in one queue, and the next decision
    variable is the frontmost unassigned one (VMTF, variable
    move-to-front). Each conflict moves the variables its analysis touched
    to the front, in the order they held. Variables first seen between two
    solves join the front at the start of the next solve, the lowest index
    frontmost: a fresh solver decides in index order, and the frame a
    model checker adds between two solves is decided before the older
    ones. A search pointer remembers where the last decision stopped, so a
    decision costs O(1) amortized; the queue's order alone fixes which
    variable is decided. *)

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
    {!solve_assuming_stats} call. The counters live in the solver state, so
    concurrent solves on different domains never observe each other. *)

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum: the work of two solves, or of a whole engine run. *)

(** {1 Incremental interface} *)

type t
(** A persistent solver: clause database, learnt clauses, decision queue
    and phases are retained across calls. Not thread-safe; use one [t] per
    obligation/domain. *)

val create : unit -> t
(** An empty solver. It takes over the storage of the solver last
    {!release}d on the calling domain, if any, and then searches exactly as
    one built from nothing. *)

val release : t -> unit
(** [release t] hands [t]'s storage to the next {!create} on the calling
    domain. The caller must not use [t] again. A checker that runs one
    solver per obligation, obligation after obligation, then grows its
    arrays once per domain instead of leaving each obligation's arrays, and
    the copies their doubling left behind, to the major GC. *)

val add_clause : t -> int list -> unit
(** Add a problem clause (DIMACS literals, i.e. nonzero ints where [-v]
    is the negation of variable [v]). Variables are allocated on demand.
    Must be called between solves (the solver is at decision level 0).
    Clauses are simplified against permanent root-level assignments; an
    empty clause makes the solver permanently unsatisfiable.
    @raise Invalid_argument on a literal [0], before any state changes. *)

val add_clause_slice : t -> int array -> int -> int -> unit
(** [add_clause_slice t buf off len] adds the clause of DIMACS literals
    [buf.(off) .. buf.(off+len-1)] exactly as {!add_clause} adds the same
    literals as a list, without building one: an encoder can stream
    clauses from one reusable buffer.
    @raise Invalid_argument on a literal [0] or a range outside [buf],
    before any state changes. *)

val solve_assuming :
  ?max_conflicts:int -> ?should_stop:(unit -> bool) -> t -> int list -> result
(** [solve_assuming t assumptions] decides satisfiability of the clause
    database conjoined with the assumption literals (DIMACS), without
    committing them: the assumptions are retracted when the call returns,
    while everything learnt is kept. [Unsat] means unsat {e under these
    assumptions} (or absolutely, if the database itself is contradictory).
    [max_conflicts] and [should_stop] are per-call budgets. [max_conflicts]
    defaults to unlimited. [should_stop] is a cooperative cancellation
    callback (e.g. a wall-clock deadline), polled every ~1000 search steps.
    When the conflicts run out or [should_stop] returns [true], the search
    gives up with {!Unknown}. Every exit, an exception raised by
    [should_stop] included, leaves the solver at decision level 0, ready
    for {!add_clause}.
    @raise Invalid_argument on a literal [0], before any state changes. *)

val solve_assuming_stats :
  ?max_conflicts:int -> ?should_stop:(unit -> bool) -> t -> int list ->
  result * stats
(** Like {!solve_assuming}, plus the work counters for this call alone. *)

val failed_assumptions : t -> int list
(** The failed-assumption core of the last {!solve_assuming} call, valid
    when it answered [Unsat] (MiniSat's [analyzeFinal]): a subset of that
    call's assumptions that is unsatisfiable together with the clause
    database, so the database plus the core as unit clauses is unsat. It is
    [[]] when the database itself is contradictory; [[p]] when assumption
    [p] is false at the root; and it holds both [x] and [-x] when both were
    assumed. The core is read off the trail and the reason clauses before
    the call returns to the root; computing it changes no search state. *)
