(** Fault-cone analysis: which signals does the erroneous stimulus actually
    corrupt, cycle by cycle?

    A {e golden} run is derived from the minimized failing stimulus by
    neutralizing every input word that can be neutralized without violating
    the input-invariant constraint (zero first, then the lowest legal
    one-hot value — parity-protected inputs reject plain zero). Diffing the
    failing replay against the golden replay, cycle by cycle, yields the set
    of non-input signals whose values the erroneous stimulus changed — the
    propagation cone of the fault, as the simulator sees it.

    When the property fails even on the golden (all-neutral, legal) inputs —
    a bug that fires spontaneously — the diff degenerates; [golden_failed]
    flags that so consumers do not over-read an empty cone. *)

type cycle_cone = {
  cone_step : int;
  corrupted : string list;  (** non-input signals differing, sorted *)
}

type t = {
  cones : cycle_cone list;  (** one per cycle, empty diffs included *)
  golden_failed : bool;  (** the golden run violates the property too *)
  golden_stimulus : (string * Bitvec.t) list list;
}

val analyze :
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  failing:Core.Replay.run ->
  (string * Bitvec.t) list list ->
  t
(** [analyze nl ~ok_signal ~failing stimulus] — [failing] must be the
    captured replay of [stimulus] on [nl]. *)
