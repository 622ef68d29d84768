(** Tseitin transformation from {!Bexpr} DAGs to CNF.

    Each distinct DAG node gets one CNF variable; sharing in the DAG is
    preserved, so the encoding is linear in DAG size. A context keeps its
    node variables across multiple roots — the bounded model checker
    encodes every unrolled frame into one context. *)

type ctx

val create : on_clause:(int list -> unit) -> ctx
(** Every generated clause goes to [on_clause] as it is made, typically
    {!Solver.add_clause} on a live incremental solver. *)

val fresh_var : ctx -> int
(** A fresh DIMACS variable (returned positive). *)

val lit_of_bexpr : ctx -> (int -> int) -> Rtl.Bexpr.t -> int
(** [lit_of_bexpr ctx var_map e] encodes [e], mapping each [Bexpr] input
    variable [v] to the DIMACS variable [var_map v] (which must already be
    allocated in this context), and returns the literal equisatisfiably
    equal to [e]. *)

val assert_lit : ctx -> int -> unit
(** Add the unit clause [lit]. *)

val add_clause : ctx -> int list -> unit

val num_vars : ctx -> int
val num_clauses : ctx -> int
