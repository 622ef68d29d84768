(** Bit-level boolean expressions (a lightweight AIG-style DAG).

    Nodes carry unique ids so downstream consumers (BDD construction, CNF
    encoding, gate mapping) can memoize over shared subterms. Ids stay
    unique when several domains build expressions at once. Smart
    constructors perform constant folding and trivial simplification. *)

type t = private { id : int; node : node }

and node =
  | True
  | False
  | Var of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Ite of t * t * t

val tru : t
val fls : t
val of_bool : bool -> t
val var : int -> t
(** [var i] has the same id wherever and whenever it is built, and no node
    other than [var i] has that id. [i] may be negative. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val xnor : t -> t -> t
val ite : t -> t -> t -> t
(** [ite c t e]. *)

val and_list : t list -> t
val or_list : t list -> t
val xor_list : t list -> t

val id : t -> int
val is_const : t -> bool option
(** [Some b] when the node is the constant [b]. *)

val eval : (int -> bool) -> t -> bool

val substitute : (int -> t) -> t -> t
(** [substitute f e] replaces every variable [v] by [f v], memoized over the
    DAG (used by the bounded model checker to unroll time frames). *)

val substitute_many : (int -> t) -> t list -> t list
(** Like {!substitute} on each root, but the memo table is shared across
    roots: a node reachable from several roots is rewritten once, so sharing
    between the roots survives the substitution. *)

val support : t -> int list
(** Variable ids, sorted, without duplicates. *)

val size : t -> int
(** Number of distinct non-leaf DAG nodes (shared nodes counted once). *)

val size_many : t list -> int
(** DAG size of a set of roots with sharing across roots counted once. *)

val pp : Format.formatter -> t -> unit
