(** RTL module definitions.

    A module has ports, internal wires driven by combinational assigns,
    clocked registers (single implicit clock, synchronous active-high reset),
    and instances of other modules. Registers carry the metadata the
    data-integrity methodology needs: a class (FSM / counter / datapath) and
    a parity-protection flag meaning the stored value, including its embedded
    parity bit, must keep odd parity. *)

type dir = Input | Output

type port = { port_name : string; dir : dir; port_width : int }

type reg_class = Fsm | Counter | Datapath | Plain

type reg = {
  reg_name : string;
  reg_width : int;
  reset_value : Bitvec.t;
  next : Expr.t;  (** value latched at each clock edge when not in reset *)
  reg_class : reg_class;
  parity_protected : bool;
}

type assign = { lhs : string; rhs : Expr.t }

(** Actual connected to a formal port of an instance: an expression of the
    parent (inputs only, e.g. the tie-to-zero of Figure 6) or a parent net
    name (inputs or outputs). *)
type actual = Expr of Expr.t | Net of string

type instance = {
  inst_name : string;
  of_module : string;
  connections : (string * actual) list;
}

type t = {
  name : string;
  ports : port list;
  wires : (string * int) list;
  assigns : assign list;
  regs : reg list;
  instances : instance list;
  attrs : (string * string) list;
      (** [[]] from {!create}, and nothing in the library adds to it; the
          field stays because [Mc.Obligation.cell_digest] prints it into
          every stored cell digest *)
}

(** {1 Construction} *)

val create : string -> t

val add_input : t -> string -> int -> t
val add_output : t -> string -> int -> t
val add_wire : t -> string -> int -> t
val add_assign : t -> string -> Expr.t -> t

val add_reg :
  ?cls:reg_class ->
  ?parity_protected:bool ->
  ?reset:Bitvec.t ->
  t ->
  string ->
  int ->
  Expr.t ->
  t
(** [add_reg m name width next] declares register [name]. [reset] defaults to
    all zeros. *)

val add_instance : t -> string -> of_module:string -> (string * actual) list -> t

val append : t -> t list -> t
(** [append m parts] adds each part's wires, assigns and registers after
    [m]'s own, part by part, in the order that [add_*] calls on [m] would
    add them. The parts' ports, instances and attributes are ignored, and
    no name is checked for freshness. *)

(** {1 Queries} *)

val find_port : t -> string -> port option
val inputs : t -> port list
val outputs : t -> port list
val find_reg : t -> string -> reg option
val is_leaf : t -> bool
(** A leaf module instantiates nothing — the unit of formal verification in
    the paper. *)

val signal_width : t -> string -> int
(** Width of a port, wire or register. Raises [Not_found] if undeclared. *)

val widths : t -> string -> int
(** [widths m] is [signal_width m], answered from a table that the partial
    application builds once. Keep it when looking up many names of one
    module: {!signal_width} rescans every declaration on each call. *)

val declared_signals : t -> (string * int) list

val map_regs : (reg -> reg) -> t -> t
val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Applies to every assign right-hand side, register next function, and
    instance [Expr] actual. *)
