(** Engine facade: one entry point per property check, with resource budgets
    and the paper's escalation workflow (try unbounded BDD checking; on
    resource exhaustion fall back to the partitioned POBDD engine and then to
    bounded checking). Escalation has one mechanism, the portfolio: [Auto]
    is the ["auto"] portfolio of those three engines. *)

type strategy =
  | Bdd_forward
  | Bdd_backward
  | Bdd_combined
  | Pobdd  (** partitioned forward reachability *)
  | Bmc
  | Kind  (** SAT-based k-induction (unbounded) *)
  | Ic3  (** IC3/PDR incremental induction (unbounded, {!Ic3}) *)
  | Auto
      (** the ["auto"] portfolio [bdd-combined; pobdd; bmc], every member at
          the check's own budget; named separately so that its name (and
          hence every default cache key) stays ["auto"] *)
  | Portfolio of portfolio
      (** a declarative member list consumed by the scheduler: raced on a
          pool, run as a short-circuiting ladder sequentially *)

and portfolio = { p_name : string; p_members : member list }

and member = { m_strategy : strategy; m_budget : budget }
(** One portfolio entry: an {e atomic} strategy (not [Auto] or a nested
    [Portfolio]) with its own resource budget. *)

and budget = {
  bdd_node_limit : int option;
  pobdd_node_limit : int option;  (** usually larger than [bdd_node_limit] *)
  pobdd_split_vars : int;
  bmc_depth : int;
  induction_max_k : int;
  sat_max_conflicts : int;
  ic3_max_frames : int;  (** IC3 frame-sequence bound *)
  wall_deadline_s : float option;
      (** cooperative wall-clock bound for the whole check, across every
          escalation stage; expiry yields [Resource_out "deadline"]. A
          portfolio member's own bound is ignored: members run under the
          check's deadline *)
  incremental : bool;
      (** keep one live SAT solver per obligation in BMC/k-induction/IC3
          (clause persistence + learnt-clause retention across depths and
          queries). [false] rebuilds each encoding from scratch — the
          differential-testing oracle, exposed as [--no-incremental] *)
}

val strategy_name : strategy -> string
(** Stable lower-case name, usable in CLI output and cache keys.
    Portfolios render as ["portfolio:<name>"]. *)

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_name} for the atomic strategies and [Auto] — the
    one strategy-name parser, shared by every CLI entry point. Portfolio
    names are not parsed here (a portfolio is a structured value, not a
    name). Round-trips: [strategy_of_string (strategy_name s) = Some s] for
    every non-portfolio [s]. *)

val default_budget : budget
(** No wall deadline; the node/conflict limits of the seed configuration. *)

val degrade_budget : budget -> budget
(** One rung down the retry ladder: node limits, SAT conflicts and the wall
    deadline halved (never below 1). Used by the campaign when re-running an
    obligation that crashed its worker. *)

val portfolio : name:string -> member list -> portfolio
(** Validated constructor: raises [Invalid_argument] on an empty member
    list or a non-atomic member ([Auto]/nested [Portfolio]). *)

val default_portfolio : budget -> portfolio
(** The standard racing portfolio derived from a base budget:
    [bdd-combined] with a small speculative node cap, [k-induction], [ic3],
    and a full-budget [pobdd] backstop (so every obligation [Auto] decides
    is still decided). Members carry no private wall deadline — they run
    under the check's deadline. *)

type verdict =
  | Proved
  | Proved_bounded of int  (** BMC only: no violation up to this depth *)
  | Failed of Trace.t
  | Resource_out of string  (** the paper's "time out happens" *)
  | Error of string
      (** the obligation's engine run crashed (raised) and exhausted its
          retries; the message is the final exception. Never produced by
          {!check_netlist} itself — the campaign runtime turns a captured
          worker crash into this verdict so one poisoned obligation cannot
          lose the rest of the campaign. *)

type perf = {
  bdd_peak : int;  (** largest BDD arena across all attempts (0 if none) *)
  bdd_polls : int;  (** manager interrupt-callback polls, summed *)
  fix_iterations : int;  (** reachability fixpoint iterations, summed *)
  peak_set_size : int;  (** largest frontier/reached-set BDD *)
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  incremental_reuse : int;
      (** SAT solves answered by a warm persistent solver (incremental
          mode), summed across engines; 0 when scratch mode ran *)
  unroll_depth : int;  (** deepest BMC unroll, [-1] if BMC never ran *)
  final_k : int;  (** k-induction's final [k], [-1] if it never ran *)
  ic3_frames : int;  (** IC3's highest frame, [-1] if it never ran *)
  attempts : string list;  (** engines tried, in escalation order *)
}
(** Per-check work measures, captured whether the check concluded or ran out
    of resources. Attached to every {!outcome}, so cached outcomes carry
    the perf of the run that produced them — summing over a
    campaign's results is therefore schedule-independent. *)

val empty_perf : perf

type outcome = {
  verdict : verdict;
  engine_used : string;
  time_s : float;
  iterations : int;
  work_nodes : int;  (** BDD nodes allocated or CNF clauses, per engine *)
  perf : perf;
}

val resource_cause : outcome -> string option
(** The canonical cause string of a [Resource_out] verdict — one of
    {!ro_causes} — and [None] for every other verdict. *)

(** {2 Canonical [Resource_out] cause strings}

    Every [Resource_out] verdict an engine emits carries one of these
    constants; downstream consumers (campaign cause tallies, the metrics
    schema, the self-healing layer) match on them instead of re-spelling
    the literals. *)

val ro_deadline : string
(** Wall-clock budget exhausted ({b "deadline"}). *)

val ro_bdd_nodes : string
(** BDD manager node limit hit ({b "bdd-nodes"}). *)

val ro_sat_conflicts : string
(** CDCL conflict budget exhausted ({b "sat-conflicts"}). *)

val ro_kind_inconclusive : string
(** k-induction reached max depth undecided ({b "kind-inconclusive"}). *)

val ro_ic3_frames : string
(** IC3 frame budget exhausted ({b "ic3-frames"}). *)

val ro_cancelled : string
(** A racing sibling concluded first ({b "cancelled"}). *)

val ro_heal_exhausted : string
(** Self-healing ran out of CEGAR iterations or usable cuts
    ({b "heal-exhausted"}). *)

val ro_causes : string list
(** All canonical causes, in a fixed documentation order. *)

val conclusive : outcome -> bool
(** [Proved] or [Failed]: a verdict that settles the obligation. Bounded
    proofs, resource-outs and errors are inconclusive — a racing sibling
    must not be cancelled on their account. *)

val settles : outcome -> bool
(** {!conclusive}, or [Resource_out "deadline"]: the member ends its
    portfolio, since every later member would start under the same expired
    deadline. The racing scheduler decides a group with it, and the
    sequential runner stops at it. *)

val combine_portfolio : outcome list -> outcome
(** Fold an index-ordered list of member outcomes into the attributed
    portfolio outcome. The attribution prefix runs from member 0 through
    the first {!settles} member (the whole list when none settles);
    the winner is the best-ranked outcome of that prefix (conclusive >
    bounded-deeper > resource-out > error, ties to the later member, so a
    rung that ran after another gave up explains the outcome), the time is
    the sum over the prefix, and the combined [perf] merges exactly the
    prefix — never the schedule-dependent members a race may or may not
    have started beyond it. Both the sequential runner and the racing
    scheduler report through this one function, which is what keeps
    seq ≡ race aggregates byte-identical. *)

val check_netlist :
  ?budget:budget ->
  ?constraint_signal:string ->
  ?deadline:Deadline.t ->
  strategy:strategy ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  outcome
(** Check that the 1-bit [ok_signal] holds in every reachable state.
    [constraint_signal] names a 1-bit combinational function of the primary
    inputs; only inputs satisfying it are explored (invariant input
    assumptions).

    [deadline] bounds the whole check: its wall bound and its stop hook
    are polled cooperatively in every engine loop (BDD fixpoint iterations
    and node allocations, POBDD partitions, BMC unroll frames, CDCL search
    steps, IC3 obligations), so an expired deadline ends the check in
    bounded time instead of hanging. It defaults to [budget.wall_deadline_s]
    fixed on entry. Expiry yields [Resource_out "deadline"]; a check cut
    short by the stop hook alone — the racing scheduler's cancellation
    path, with the wall clock still unexpired — yields
    [Resource_out "cancelled"]. Every outcome, resource-outs included,
    carries its measured time.

    [Auto] and [Portfolio] run their members in order, every member under
    this one deadline (a member budget's own [wall_deadline_s] is
    ignored), and stop at the first member that {!settles}: one that
    concludes or runs out of the deadline. {!combine_portfolio} then
    attributes the members that ran. *)

val instrumented_netlist :
  Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  Rtl.Netlist.t * string * string option
(** The preparation half of {!check_property}: inline the property's boolean
    layer, prune irrelevant assumptions, lower invariant input assumptions to
    an engine-level constraint, synthesize the safety monitor, elaborate and
    cone-reduce. Returns [(netlist, ok_signal, constraint_signal)] — exactly
    what {!check_netlist} consumes. {!Obligation.prepare} builds on this to
    make the prepared check a first-class, schedulable value. *)

val replay_model :
  Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  Rtl.Netlist.t * string * string option
(** {!instrumented_netlist} without the final cone-of-influence reduction:
    the same inlining, assumption pruning, constraint lowering and monitor
    synthesis, but every module signal is kept. This is the model the
    diagnosis layer replays counterexamples on — the simulator cross-check
    then exercises an independently-prepared model (no COI), and the replay
    exposes the full internal/output signal set (e.g. the [HE] report bus)
    that the reduced engine model may have pruned away. Inputs of the
    reduced model are a subset of this model's inputs; replaying a reduced
    trace with the pruned inputs held at zero cannot change the property
    cone (that is what the COI reduction proved). *)

val prepare_module :
  Rtl.Mdl.t ->
  props:(string * Psl.Ast.fl * Psl.Ast.fl list) list ->
  (string * (Rtl.Netlist.t * string * string option)) list
(** Shared preparation for all properties of one module: the module-level
    work (inliner tables, the pruner's raw elaboration and its
    {!Rtl.Coi.reduce} index, monitor weaving, the single full elaborate and
    its COI index) runs once, then each property gets its own
    cone-of-influence reduction from its own monitor roots. Input is
    [(name, assert, assumes)] per property; output pairs each name with
    exactly what {!instrumented_netlist} would have returned for it: each
    property's cone holds only its own monitor (monitors are independent
    cones), and the weaving prefix is folded back to the unshared path's
    [mon], so the reduced models are name-identical — same canonical
    fingerprints, and trace register names stay replayable against
    {!replay_model} — at roughly [1/n] of the preparation cost for an
    [n]-property module. *)

val prep_version : int
(** The version of the preparation behind every cache key: inlining,
    assumption pruning, monitor synthesis, elaboration, COI reduction, the
    monitor-prefix fold of {!prepare_module} and {!Rtl.Canon}'s
    fingerprint. {!Obligation.cell_digest} covers it, so a store's cell
    records name the keys this version computes. Bump it whenever a change
    there can move a key: otherwise a warm run answers a cell from a record
    of the keys the old preparation computed. *)

val check_property :
  ?budget:budget ->
  ?strategy:strategy ->
  Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  outcome
(** Instrument a leaf module with the property monitor, elaborate it in
    isolation, and check. This is the paper's per-leaf-module model-checking
    step. [strategy] defaults to [Auto]. *)

val problem_size :
  Rtl.Mdl.t -> assert_:Psl.Ast.fl -> assumes:Psl.Ast.fl list -> int * int
(** [(state bits, input bits)] of the instrumented, cone-reduced model the
    engines would actually check — the paper's "problem size of the
    properties". *)

val check_vunit :
  ?budget:budget ->
  ?strategy:strategy ->
  Rtl.Mdl.t ->
  Psl.Ast.vunit ->
  (string * outcome) list
(** Run every [assert] of a vunit against the module, under all its
    [assume]s. Returns per-property outcomes keyed by property name. *)
