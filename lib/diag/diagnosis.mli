(** Counterexample diagnosis: validated, minimized, explained failures.

    For each falsified proof obligation this module replays the engine's
    counterexample through the cycle-accurate simulator on an independently
    prepared full-visibility model ({!Mc.Engine.replay_model}),
    cross-validates it ({!Core.Replay.validate}), delta-debugs the stimulus down
    to a minimal failing core ({!Minimize}), computes the fault cone against
    a golden legal-input run ({!Cone}), and renders the result as a
    structured JSON artifact (schema {!schema}), an annotated VCD waveform
    and a human-readable explanation.

    Everything here is deterministic: no timestamps, no randomness, results
    independent of the job count — a one-job and a pooled diagnosis of the
    same campaign produce byte-identical artifacts. *)

type validation = {
  status : [ `Confirmed | `Not_confirmed of string ];
      (** [`Confirmed]: the simulator reproduces the engine's violation at
          the trace's final cycle with every recorded register agreeing *)
  fail_cycle : int option;  (** first genuinely failing replay cycle *)
  minimized_reproduces : bool;
      (** the minimized stimulus still drives the monitor into violation *)
}

type t = {
  category : string;
  module_name : string;
  vunit_name : string;
  prop_name : string;
  cls : Verifiable.Propgen.prop_class;
  bug : Chip.Bugs.id option;  (** seeded defect behind the failure, if any *)
  he_signal : string option;
      (** the module's hardware-error report bus, when visible in the
          replay model *)
  original_cycles : int;
  minimized_cycles : int;
  original_care_bits : int;  (** set stimulus bits before minimization *)
  minimized_care_bits : int;
  validation : validation;
  cone : Cone.cycle_cone list;  (** corrupted signals, per cycle *)
  golden_failed : bool;  (** see {!Cone.t.golden_failed} *)
  explanation : string;  (** what the violation means, per property class *)
  minimized_stimulus : (string * Bitvec.t) list list;
}

type artifacts = {
  diag : t;
  minimized_trace : Mc.Trace.t;
      (** the minimized stimulus with replayed register values *)
  replay_snapshots : Core.Replay.snapshot list;
      (** full signal snapshots of the minimized failing replay — feed to
          {!Mc.Trace.to_vcd}'s [?replay] for the annotated waveform *)
}

val cls_tag : Verifiable.Propgen.prop_class -> string
(** ["P0"] .. ["P3"]. *)

val diagnose :
  ?he_signal:string -> Core.Campaign.work -> Mc.Trace.t -> artifacts
(** Diagnose one falsified obligation. Records a [diag.obligation] telemetry
    span and the [diag.replays] / [diag.confirmed] / [diag.not_confirmed] /
    [diag.cycles_removed] / [diag.bits_cleared] counters. *)

val to_vcd : artifacts -> string
(** The annotated waveform: minimized stimulus, replayed registers, and
    every internal/output signal of the replay model (HE bus included). *)

val schema : string
(** ["dicheck-diag-v1"]. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
(** [of_json (to_json d)] reconstructs [d] exactly. *)

type diagnosed = {
  result : Core.Campaign.prop_result;
  artifacts : artifacts;
}

val he_signal_of : Chip.Generator.t -> Core.Campaign.work -> string option
(** The HE report signal of the unit a work item binds to, from its
    integrity spec. *)

val failed_work :
  Chip.Generator.t ->
  Core.Campaign.t ->
  (Core.Campaign.work * Core.Campaign.prop_result * Mc.Trace.t) list
(** Every falsified campaign result paired with the work item that produced
    it (by index — {!Core.Campaign.work_items} matches the result order) and
    its counterexample trace. *)

val diagnose_campaign :
  ?jobs:int -> Chip.Generator.t -> Core.Campaign.t -> diagnosed list
(** Diagnose every falsified obligation of a campaign, in result order.
    [jobs] is the {!Core.Executor}'s job count; per-item crash isolation
    turns a diagnosis crash into a [`Not_confirmed] record instead of losing
    the rest. Output is identical for any [jobs]. *)
