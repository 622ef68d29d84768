(** Cycle-accurate simulation of elaborated netlists, compiled once per
    netlist into a bit-parallel program.

    A cycle proceeds as: drive inputs, settle combinational logic (one
    left-to-right pass over the levelized assigns), observe any signal, then
    clock the registers. [reset] puts every register at its reset value and
    zeroes the inputs.

    {!create} lowers every assign and every register's next state straight
    from its {!Rtl.Expr} into a program over machine words: one word per
    signal bit, each word carrying that bit for {!lanes} independent
    stimulus lanes. And, or, xor, not and mux are word operations; add and
    subtract ripple a carry; equality, less-than and the reductions fold
    words; concatenation and slicing only renumber bits. No BDD or SAT
    machinery is involved, so the simulator stays an independent check on
    the engines.

    {!drive}, {!peek} and the rest of the one-stimulus interface work on
    lane 0: [drive] sets an input in every lane, [peek] reads lane 0.
    {!drive_lanes} and {!peek_lanes} give each lane its own stimulus, so one
    pass over the program runs {!lanes} stimuli at once. *)

type t

val lanes : int
(** Lanes per word: [Sys.int_size], 63 on a 64-bit host. *)

val create : Rtl.Netlist.t -> t
(** Compile the netlist, which must already be levelized (as
    {!Rtl.Elaborate.run} returns) and valid; raises [Invalid_argument]
    otherwise. Records one [sim/compile] telemetry span. *)

val reset : t -> unit

val drive : t -> string -> Bitvec.t -> unit
(** Set a primary input for the current cycle, in every lane. Raises
    [Invalid_argument] on unknown inputs or width mismatches. *)

val drive_all : t -> (string * Bitvec.t) list -> unit

val drive_lanes : t -> string -> int array -> unit
(** [drive_lanes t name words] sets input [name] lane by lane: bit [l] of
    [words.(i)] is bit [i] of the input in lane [l]. Raises
    [Invalid_argument] on unknown inputs or when [words] does not hold one
    word per input bit. *)

val settle : t -> unit
(** Recompute all combinational signals from the current inputs and register
    values. *)

val peek : t -> string -> Bitvec.t
(** Value of any signal in lane 0 after the last [settle]/[clock]. Raises
    [Not_found] for undeclared signals. *)

val peek_bit : t -> string -> bool
(** Bit 0 of [peek]. *)

val peek_lanes : t -> string -> int -> int
(** [peek_lanes t name i] is bit [i] of [name] in every lane: lane [l] in
    bit [l]. Raises [Not_found] for undeclared signals and
    [Invalid_argument] when [i] is out of range. *)

val clock : t -> unit
(** Latch every register's next value (computed from the settled state) and
    advance the cycle counter; re-settles combinational logic. *)

val cycle : t -> (string * Bitvec.t) list -> unit
(** [drive_all]; [settle]; [clock] — one full cycle. *)

val cycle_count : t -> int
val netlist : t -> Rtl.Netlist.t
val inputs : t -> (string * int) list
