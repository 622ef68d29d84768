(** Fixed-width bit vectors.

    Values are immutable. The width is part of the value; operations that
    combine two vectors require equal widths and raise [Invalid_argument]
    otherwise. Bit 0 is the least significant bit. *)

type t

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zero vector of width [w]. [w] must be positive. *)

val ones : int -> t
(** [ones w] is the all-one vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] takes the low [width] bits of [n]. [n] must be
    non-negative. *)

val of_string : string -> t
(** [of_string s] parses a binary string, most significant bit first,
    e.g. ["1010"]. Underscores are ignored. Raises [Invalid_argument] on an
    empty or non-binary string. *)

val of_bool : bool -> t
(** [of_bool b] is the 1-bit vector holding [b]. *)

val init : int -> (int -> bool) -> t
(** [init w f] is the vector whose bit [i] is [f i]. *)

val random : Random.State.t -> int -> t
(** [random st w] draws a uniformly random vector of width [w]. *)

(** {1 Observation} *)

val width : t -> int
val get : t -> int -> bool
(** [get v i] is bit [i]. Raises [Invalid_argument] if out of range. *)

val to_int : t -> int
(** [to_int v] converts to an int. Raises [Invalid_argument] if the value
    does not fit in an OCaml int. *)

val to_string : t -> string
(** Binary string, most significant bit first. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison; widths must match. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit

val add_to_buffer : Buffer.t -> t -> unit
(** [add_to_buffer b v] appends an exact, self-delimiting text of [v]: its
    width, then its limbs, each a decimal number followed by a space. Two
    vectors print the same text iff they are {!equal}. *)

(** {1 Bitwise operations} *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val set : t -> int -> bool -> t
(** [set v i b] is [v] with bit [i] replaced by [b]. *)

(** {1 Reductions} *)

val red_and : t -> bool
val red_or : t -> bool
val red_xor : t -> bool
(** [red_xor v] is the parity of [v]: [true] iff the number of set bits is
    odd. *)

val popcount : t -> int

(** {1 Arithmetic (modulo 2^width)} *)

val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val neg : t -> t

(** {1 Structure} *)

val concat : t -> t -> t
(** [concat hi lo] places [hi] above [lo]; width is the sum. *)

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo] extracts bits [lo..hi] inclusive. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Logical shifts; the width is preserved. *)

(** {1 Parity protection helpers} *)

val append_odd_parity : t -> t
(** [append_odd_parity v] appends one parity bit above the MSB such that the
    result has odd parity (an odd total number of set bits), the encoding the
    paper's chip uses for all protected state. *)

val has_odd_parity : t -> bool
(** [has_odd_parity v] is [true] iff [v] has an odd number of set bits, i.e.
    the codeword is legal under odd-parity protection. *)

val corrupt_bit : t -> int -> t
(** [corrupt_bit v i] flips bit [i]; models a single soft error. *)
