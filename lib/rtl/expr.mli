(** Word-level RTL expressions.

    Expressions reference signals of the enclosing module by name; widths are
    inferred relative to an environment giving each signal's width. *)

type unop =
  | Not        (** bitwise complement *)
  | Red_and    (** AND-reduction, width 1 *)
  | Red_or     (** OR-reduction, width 1 *)
  | Red_xor    (** XOR-reduction (parity), width 1 *)

type binop =
  | And
  | Or
  | Xor
  | Xnor
  | Add        (** modulo 2^width *)
  | Sub
  | Eq         (** width 1 *)
  | Ne         (** width 1 *)
  | Lt         (** unsigned, width 1 *)
  | Concat     (** left operand is the high part *)

type t =
  | Const of Bitvec.t
  | Var of string
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t  (** [Mux (sel, t, e)]: [t] when 1-bit [sel] is high *)
  | Slice of t * int * int  (** [Slice (e, hi, lo)], bits [lo..hi] *)

(** {1 Convenience constructors} *)

val const : Bitvec.t -> t
val of_int : width:int -> int -> t
val var : string -> t
val tru : t
val fls : t
val ( !: ) : t -> t
(** Bitwise not. *)

val ( &: ) : t -> t -> t
val ( |: ) : t -> t -> t
val ( ^: ) : t -> t -> t
val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( ==: ) : t -> t -> t
val ( <>: ) : t -> t -> t
val ( <: ) : t -> t -> t
val mux : t -> t -> t -> t
val concat : t -> t -> t
val concat_list : t list -> t
(** [concat_list [hi; ...; lo]]; raises [Invalid_argument] on []. *)

val slice : t -> hi:int -> lo:int -> t
val bit : t -> int -> t
val red_xor : t -> t
val red_or : t -> t
val red_and : t -> t

(** {1 Queries} *)

val width : env:(string -> int) -> t -> int
(** Inferred width. Raises [Invalid_argument] on ill-formed expressions
    (operand width mismatch, bad slice, non-1-bit mux select). *)

val eval : env:(string -> Bitvec.t) -> t -> Bitvec.t
(** Evaluate under a signal assignment. Raises like {!width} on ill-formed
    expressions. *)

val support : t -> string list
(** Signal names referenced, sorted, without duplicates. *)

val subst : (string -> t option) -> t -> t
(** [subst f e] replaces each [Var x] by [f x] when it is [Some _]. *)

val rename : (string -> string) -> t -> t

val simplify : env:(string -> int) -> t -> t
(** Structural simplification: slices of concatenations and of nested slices
    are resolved, full-width slices dropped, constant slices folded, and
    muxes with constant selects collapsed. [env] supplies signal widths.
    Semantics are preserved; the point is to shrink an expression's support
    (e.g. [HE[3]] where [HE] is a concatenation reduces to the driver of
    that one bit), which sharpens cone-of-influence reduction. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val bprint : ?name:(string -> string) -> Buffer.t -> t -> unit
(** [bprint ~name b e] appends the text of [pp] on [rename name e] to [b],
    without building the renamed expression or going through [Format].
    [name] defaults to the identity. *)

val to_string : t -> string
(** The text of [pp], printed by {!bprint}. *)
