(** A small standard-cell library with gate-equivalent areas and intrinsic
    delays representative of the paper's 0.11um CMOS ASIC process. The MUX2
    delay is the paper's quoted ~200 ps selector delay. *)

type cell = Inv | And2 | Or2 | Xor2 | Mux2 | Dff

val all : cell list
val name : cell -> string

val area : cell -> float
(** Gate equivalents (NAND2 = 1.0). *)

val delay : cell -> float
(** Propagation delay in picoseconds; for [Dff] this is clock-to-Q. *)

val clock_period_ps : frequency_mhz:float -> float
