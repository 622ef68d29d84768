(** Cross-engine differential checking of one fuzz case.

    Every obligation of the case is run through each concrete engine
    strategy (forced via {!Mc.Engine.check_netlist} overrides, all sharing
    one prepared netlist), every counterexample is cross-validated with
    {!Core.Replay} on the independently prepared replay model, small
    designs additionally get a bounded exhaustive simulation sweep, and
    the printed Verilog is parsed back and compared by canonical
    fingerprint. Any pairwise contradiction between those oracles is a
    discrepancy — the fuzzer's unit of failure. *)

type discrepancy_kind =
  | Verdict_split
      (** one engine proves what another (replay-validated) refutes *)
  | Replay_mismatch
      (** an engine counterexample fails {!Core.Replay.validate} *)
  | Sim_mismatch
      (** bounded exhaustive simulation contradicts the engine consensus *)
  | Roundtrip_mismatch
      (** [parse (print d)] has a different canonical fingerprint than [d] *)
  | Injected  (** the artificial test-hook disagreement *)

val kind_name : discrepancy_kind -> string

type discrepancy = {
  kind : discrepancy_kind;
  case_id : string;
  prop : string option;  (** property name; [None] for round-trip *)
  detail : string;
}

type engine_result = {
  strategy : Mc.Engine.strategy;
  scratch : bool;
      (** [true] for the extra scratch-mode runs of the SAT engines
          ([budget.incremental = false]): the same strategy re-run with the
          persistent-solver path disabled, cross-checked against every
          other oracle like an independent engine *)
  outcome : Mc.Engine.outcome;
  validated_fail : int option;
      (** length of the counterexample when the verdict is [Failed] and the
          replay cross-check confirmed it *)
}

type obligation_report = {
  prop_name : string;
  cls : Verifiable.Propgen.prop_class;
  engines : engine_result list;
  sim_sequences : int;  (** exhaustive sequences simulated (0 = skipped) *)
}

type report = {
  case : Gen.case;
  obligations : obligation_report list;
  roundtrip_ok : bool;
  discrepancies : discrepancy list;
  time_s : float;
}

val strategies : Mc.Engine.strategy list
(** The concrete strategies exercised, escalation-free:
    BDD forward/backward/combined, POBDD, BMC, k-induction, IC3. The SAT
    strategies (BMC, k-induction, IC3) each run twice per obligation —
    incremental and scratch — so the warm-solver path is differentially
    checked against the rebuild-every-depth oracle on every fuzz case. *)

val fuzz_budget : Mc.Engine.budget
(** Reduced per-check budget (shallow BMC/induction depth, small node and
    conflict limits, a short wall deadline) sized for the generator's
    design envelope, so a pathological case times out instead of stalling
    the campaign. *)

val roundtrip : Rtl.Mdl.t -> (unit, string) result
(** The print/parse/fingerprint round-trip on its own: print the module as
    Verilog, parse it back, re-annotate, elaborate both and compare
    {!Rtl.Canon.fingerprint}s. *)

val exhaustive_sim :
  Rtl.Netlist.t ->
  ok_signal:string ->
  constraint_signal:string option ->
  (int * int * int option) option
(** Bounded exhaustive simulation of a replay model: [None] when its inputs
    have no bits or more than 10; otherwise every input sequence of
    [depth = max 1 (10 / bits)] cycles, [total = 2^(bits * depth)] of them,
    numbered so that sequence [n] drives bit [k] of [n] as the [k]-th input
    bit of the whole stimulus (cycle by cycle, input by input in netlist
    order). The sequences run {!Sim.Simulator.lanes} at a time through
    {!Core.Replay.run_lanes}, in batches taken in that order, and the sweep
    stops at the first batch with a failing lane. Returns
    [Some (total, depth, first_fail)], where [first_fail] is the failing
    cycle of the lowest failing sequence, exactly what running the
    sequences one at a time would report. Records one [sim/sweep] span and
    adds to the [qa.sim_sequences] counter the number of sequences up to
    and including the first failing one ([total] when none fails). *)

val check_case : ?inject:bool -> Gen.case -> report
(** Run the full differential battery. [inject] (default [false]) appends
    an artificial [Injected] discrepancy — the test hook that lets the
    shrinking and exit-code paths be exercised without a real engine bug. *)

val discrepant : ?inject:bool -> Gen.params -> bool
(** Rebuild the design for [params] and re-run the battery: does any
    discrepancy remain? This is the shrinker's predicate. *)
