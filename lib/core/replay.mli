(** Counterexample replay: drive an engine trace's stimulus through the
    cycle-accurate simulator and observe what the monitor actually does.

    The model is {!Mc.Engine.replay_model} — the engine's own preparation
    pipeline minus the cone-of-influence reduction — so the cross-check runs
    on an independently prepared netlist with every module signal visible
    (the [HE] report bus, datapath internals, the monitor's fail net).
    Inputs the engine's reduced model pruned away are driven to zero unless
    the caller supplies a legal default for them; by the COI argument they
    cannot affect the property cone.

    This lives in [Core] (rather than [Diag]) because the self-healing
    layer replays freed-cut counterexamples on the concrete module to tell
    real failures from abstraction artifacts. The fuzz battery's exhaustive
    sweep applies the same violation rule to {!Sim.Simulator.lanes}
    stimuli at once ({!run_lanes}). *)

type snapshot = (string * Bitvec.t) list
(** Settled pre-clock values of every netlist signal at one cycle. *)

type run = {
  snapshots : snapshot list;
      (** one per stimulus cycle; empty when [capture] was [false] *)
  ok_values : bool list;  (** the monitor's [invariant_ok], per cycle *)
  constraint_clean : bool;
      (** the input-invariant constraint held at {e every} cycle *)
  fail_cycle : int option;
      (** first cycle with [ok = false] while the constraint had held at
          every cycle up to and including it — the engine's notion of a
          genuine violation. [None] means the stimulus does not violate the
          property (or discharges it by breaking an assumption). *)
}

val run :
  ?defaults:(string * Bitvec.t) list ->
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ?capture:bool ->
  ok_signal:string ->
  (string * Bitvec.t) list list ->
  run
(** Reset, then for each cycle: drive the stimulus, settle, observe, clock.
    An input absent from a cycle's stimulus takes its value from [defaults]
    when listed there and zero otherwise — the healing layer passes
    odd-parity constants for parity-assumed inputs so a replay never breaks
    the input constraint by construction. [capture] (default [true]) records
    full signal snapshots; the minimization oracle turns it off to keep
    replays cheap.

    The partial application [run ?defaults ?constraint_signal nl] compiles
    [nl] once ({!Sim.Simulator.create}); apply it to as many stimuli as
    needed, one at a time and from one domain, since the stimuli share that
    simulator. Each stimulus replayed bumps the [diag.replays] telemetry
    counter, so it counts trace replays; {!run_lanes} does not count. *)

val run_lanes :
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  (string * int array) list list ->
  int option array
(** [run] without capture for {!Sim.Simulator.lanes} stimuli at once, one
    per lane: each cycle gives every input as one word per bit, lane [l] in
    bit [l] ({!Sim.Simulator.drive_lanes}), and an input absent from a cycle
    is zero in every lane. Returns each lane's [fail_cycle], decided by the
    same genuine-violation rule as [run]. The partial application
    [run_lanes ?constraint_signal nl] compiles [nl] once, as for [run]. *)

val fails : run -> bool
(** [fail_cycle <> None]. *)

val validate : Mc.Trace.t -> run -> (unit, string) result
(** Cross-validate an engine counterexample against its replay: the replay
    must reach a genuine violation at the trace's final cycle, and every
    register value the trace records must match the replayed machine,
    cycle by cycle. [Error reason] explains the first disagreement. The
    replay must have been captured. *)
