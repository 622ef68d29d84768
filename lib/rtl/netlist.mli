(** Flat (elaborated) netlists.

    All hierarchy has been inlined; signal names are hierarchical paths.
    Combinational assigns are stored in topological order, so a single
    left-to-right pass evaluates the cycle. *)

type flat_reg = {
  name : string;
  width : int;
  reset_value : Bitvec.t;
  next : Expr.t;
  cls : Mdl.reg_class;
  parity_protected : bool;
}

type t = {
  top : string;
  inputs : (string * int) list;
  outputs : (string * int) list;
  wires : (string * int) list;  (** internal combinational nets *)
  assigns : (string * Expr.t) list;  (** topologically sorted *)
  regs : flat_reg list;
}

exception Combinational_loop of string list
(** Raised by {!levelize} with the offending net names. *)

val signal_width : t -> string -> int
(** Raises [Not_found] for undeclared signals. *)

val signals : t -> (string * int) list
(** All declared signals: inputs, outputs, wires, registers. *)

val levelize : t -> t
(** Topologically sort [assigns]; registers and primary inputs are sources.
    Raises {!Combinational_loop}. *)

val validate : t -> (unit, string) result
(** Every assign target declared exactly once, every support signal declared,
    widths consistent, outputs driven. *)

val state_bits : t -> int
(** Total register bits — the model-checking problem size. *)
