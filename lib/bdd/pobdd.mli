(** Partitioned reduced ordered BDDs (POBDDs): the windows and the choice
    of splitting variables.

    Following Jain's partitioning approach (the paper's in-house engine,
    reference [10]), a boolean function is kept as one part per window,
    where the windows are disjoint cubes over chosen splitting variables
    and each part is the function conjoined with its window. Keeping each
    part separate bounds the peak BDD size: the monolithic BDD is never
    built. The parts themselves live in [Mc.Umc], which keeps one reached
    set and one frontier per window. *)

val windows : Bdd.man -> int list -> Bdd.t list
(** [windows m vars] are the [2^|vars|] cubes over [vars], in increasing
    binary order. *)

val choose_splitting_vars : Bdd.man -> candidates:int list -> k:int -> Bdd.t -> int list
(** Pick [k] splitting variables greedily: at each step choose the candidate
    whose two cofactors have the smallest combined size (the classic POBDD
    heuristic for balanced, compact partitions). *)
