(** Partitioned reduced ordered BDDs (POBDDs).

    Following Jain's partitioning approach (the paper's in-house engine,
    reference [10]), a boolean function is represented as a list of
    [(window, part)] pairs where the windows are disjoint cubes over chosen
    splitting variables and [part] is the function conjoined with its
    window. Keeping each partition separate bounds the peak BDD size: the
    monolithic BDD is never built. *)

type partition = { window : Bdd.t; part : Bdd.t }
type t = partition list

val windows : Bdd.man -> int list -> Bdd.t list
(** [windows m vars] are the [2^|vars|] cubes over [vars], in increasing
    binary order. *)

val decompose : Bdd.man -> windows:Bdd.t list -> Bdd.t -> t
(** Constrain a function to each window. Empty partitions are kept (their
    [part] is the zero BDD) so partition indices stay aligned across
    iterations. *)

val recombine : Bdd.man -> t -> Bdd.t
(** Disjunction of all partitions (may be large — use for final answers and
    tests only). *)

val peak_size : Bdd.man -> t -> int
(** Largest single partition size in nodes — the quantity partitioning is
    meant to bound. *)

val total_size : Bdd.man -> t -> int

val choose_splitting_vars : Bdd.man -> candidates:int list -> k:int -> Bdd.t -> int list
(** Pick [k] splitting variables greedily: at each step choose the candidate
    whose two cofactors have the smallest combined size (the classic POBDD
    heuristic for balanced, compact partitions). *)
