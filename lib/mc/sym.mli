(** Symbolic FSM: a netlist compiled to BDDs.

    Variable order: the state bits come in register order, each one's
    current- and next-state variables adjacent. Right after a bit's pair
    come the input bits its next-state function reads that no earlier bit
    read; inputs no next-state function reads go last. Keeping a capture
    register's input next to its pair keeps the image computation's
    intermediate products small. {!cur_var}, {!nxt_var} and
    {!classify_var} map between state/input bits and BDD variables. *)

type t

val create :
  ?node_limit:int -> ?interrupt:(unit -> bool) -> Rtl.Netlist.t -> t
(** Builds the next-state BDDs and initial-state cube. Raises
    {!Bdd.Node_limit} if the node budget is exceeded during construction.
    [interrupt] is installed on the manager {e before} any BDDs are built
    (see {!Bdd.set_interrupt}), so a deadline or cancellation bounds even
    the transition-relation construction, not just the fixpoint loops. *)

val man : t -> Bdd.man
val netlist : t -> Rtl.Netlist.t
val num_state_bits : t -> int
val num_input_bits : t -> int

val cur_vars : t -> int list
val nxt_vars : t -> int list
val inp_vars : t -> int list

val cur_var : t -> int -> int
(** BDD variable of state bit [i] (current). *)

val nxt_var : t -> int -> int
val next_fn : t -> int -> Bdd.t
(** Next-state function of state bit [i], over current-state and input
    variables. *)

val init : t -> Bdd.t
(** Initial-state cube over current-state variables. *)

val signal_bdd : t -> string -> Bdd.t array
(** Bit functions of any declared signal over current-state and input
    variables. *)

val signal_bit : t -> string -> int -> Bdd.t

val state_bit_name : t -> int -> string * int
(** [(register name, bit index)] of state bit [i]. *)

val input_bit_name : t -> int -> string * int

val nxt_to_cur : t -> Bdd.t -> Bdd.t
(** Rename next-state variables to current-state variables. *)

val classify_var : t -> int -> [ `Cur of int | `Nxt of int | `Inp of int ]
(** What a BDD variable stands for: current/next state bit or input bit. *)

val subst_next : t -> Bdd.t -> Bdd.t
(** [subst_next t b] substitutes each current-state variable by its
    next-state function — the functional pre-image kernel. *)

val state_values_of_assignment : t -> (int * bool) list -> (string * Bitvec.t) list
(** Decode a partial BDD assignment (over current-state variables) into
    register values; unmentioned bits default to 0. *)

val input_values_of_assignment : t -> (int * bool) list -> (string * Bitvec.t) list
