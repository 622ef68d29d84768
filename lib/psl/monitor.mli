(** Safety-monitor synthesis: compile the PSL safety subset into monitor
    logic woven into a copy of the bound module.

    The instrumented module gains (per property set) a combinational [fail]
    signal that is high exactly in cycles where the asserted property is
    violated, plus assumption-tracking signals. Both the simulator (checking
    assertions during random simulation) and the model checker (invariant
    [never fail under assumptions]) consume the same instrumentation, which
    guarantees the two flows agree on property semantics. *)

exception Unsupported of string
(** Raised on liveness ([eventually!]) or temporal operands outside the
    supported safety forms (see {!Ast.is_safety}). *)

type instrumented = {
  mdl : Rtl.Mdl.t;  (** the module with monitor wires and registers added *)
  fail_signal : string;
      (** 1-bit wire: the asserted property fails in this cycle *)
  assume_fail_now : string;
      (** 1-bit wire: some assumption is violated in this cycle *)
  assume_failed_before : string;
      (** 1-bit register: an assumption was violated in an earlier cycle *)
  invariant_ok : string;
      (** 1-bit wire that must hold in all reachable states:
          [fail] implies an assumption was violated now or earlier *)
}

val instrument :
  Rtl.Mdl.t -> prefix:string -> assert_:Ast.fl -> assumes:Ast.fl list -> instrumented
(** [prefix] namespaces the added monitor signals; it must be fresh with
    respect to the module's signals. [instrument] is {!weaver} for one
    property, with the monitor appended to the module. *)

val weaver :
  Rtl.Mdl.t -> prefix:string -> assert_:Ast.fl -> assumes:Ast.fl list -> instrumented
(** [weaver mdl] synthesizes monitors against [mdl] without weaving them
    in. Each application returns one property's monitor alone: its [mdl],
    named after [prefix], holds only the monitor's wires, assigns and
    registers, in the order {!instrument} adds them, and each of their
    names starts with [prefix ^ "_"]. [prefix] must be fresh with respect
    to [mdl]'s signals. {!Rtl.Mdl.append} then weaves the monitors of
    several such prefixes, as [mon0], [mon1], ..., into [mdl] in order.
    The partial application builds [mdl]'s width table once, so each
    monitor costs its own size, not the module's. *)
