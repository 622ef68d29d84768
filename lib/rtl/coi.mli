(** Cone-of-influence reduction: restrict a netlist to the logic that can
    affect a set of root signals. Registers and assigns outside the
    transitive fan-in are dropped; the state space seen by the model checker
    shrinks accordingly. This is what makes the paper's divide-and-conquer
    property partitioning (Figure 7) pay off: each sub-property has a
    smaller cone. *)

val reduce : Netlist.t -> roots:string list -> Netlist.t
(** Keeps the named root signals, everything in their transitive fan-in
    (through assigns and register next-state functions), and all primary
    inputs feeding that logic. Outputs outside the cone are dropped from the
    interface. Raises [Not_found] if a root is undeclared.

    Partially applying [reduce nl] builds the netlist's dependency index
    (every signal's driver support and the declared-signal set) once;
    applying the result to each set of roots then costs only that cone's
    walk and the filtering. Keep the partial application when reducing one
    netlist to many cones. The index is read-only, so the closure may be
    shared across domains. *)

val cone_size : Netlist.t -> roots:string list -> int * int
(** [(registers, assigns)] inside the cone. *)
