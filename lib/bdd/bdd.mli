(** Reduced ordered binary decision diagrams.

    A manager owns the node arena; BDD values are only meaningful relative to
    their manager. The variable order is the index order: variable 0 is
    closest to the root. There is no garbage collection — the arena grows
    monotonically, which is adequate for leaf-module-sized model checking and
    makes the {!Node_limit} resource bound (the paper's "time-out") exact and
    reproducible. *)

type man
type t

exception Node_limit
(** Raised by any operation that would grow the arena past the configured
    node limit — the reproducible stand-in for the paper's model-checker
    time-outs (Figure 7). *)

exception Interrupted
(** Raised by any node-allocating operation when the manager's interrupt
    callback ({!set_interrupt}) returns [true] — the cooperative wall-clock
    cancellation point inside long-running BDD operations. *)

val create : ?node_limit:int -> nvars:int -> unit -> man
(** [create ~nvars ()] makes a manager for variables [0 .. nvars-1].
    [node_limit] defaults to unlimited. *)

val nvars : man -> int
val set_node_limit : man -> int option -> unit

val set_interrupt : man -> (unit -> bool) option -> unit
(** Install (or clear) a cancellation callback, polled every few thousand
    node allocations. When it returns [true] the allocating operation raises
    {!Interrupted}, abandoning the partially-built result. The arena stays
    consistent and the manager usable (no later operation reads the memo
    entries of the abandoned one), but callers normally discard the whole
    manager afterwards. The callback must not operate on the manager. *)

val node_count : man -> int
(** Total nodes allocated in the arena (a monotone work measure). *)

val interrupt_polls : man -> int
(** How many times the interrupt callback has been polled (once per ~8k node
    allocations while a callback is installed) — reported by the engine layer
    as a telemetry counter. *)

val clear_caches : man -> unit

(** {1 Constants and variables} *)

val zero : man -> t
val one : man -> t
val var : man -> int -> t
val nvar : man -> int -> t
(** Negated variable. *)

(** {1 Boolean operations} *)

val not_ : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor : man -> t -> t -> t
val xnor : man -> t -> t -> t
val imp : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

(** {1 Tests} *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val subset : man -> t -> t -> bool
(** [subset m a b] iff [a -> b] is a tautology. *)

(** {1 Quantification and substitution} *)

val exists : man -> int list -> t -> t
val forall : man -> int list -> t -> t
val and_exists : man -> int list -> t -> t -> t
(** [and_exists m vars f g] = [exists vars (f ∧ g)] computed without building
    the full conjunction (the relational-product kernel). *)

val vector_compose : man -> (int -> t option) -> t -> t
(** [vector_compose m f b] substitutes [f i] (when [Some]) simultaneously for
    each variable [i] in [b]. [f] is called once per variable, in index
    order, before the substitution starts; it must not call
    [vector_compose] on [m]. *)

val restrict : man -> int -> bool -> t -> t
(** Cofactor with respect to one literal. *)

(** {1 Inspection} *)

val size : man -> t -> int
(** Nodes reachable from this root. *)

val support : man -> t -> int list
val sat_count : man -> t -> float
(** Number of satisfying assignments over all [nvars] variables. *)

val any_sat : man -> t -> (int * bool) list
(** A satisfying partial assignment (one literal per variable on the path).
    Raises [Not_found] on the zero BDD. *)

val eval : man -> (int -> bool) -> t -> bool

val cube : man -> (int * bool) list -> t
(** Conjunction of literals. *)

val fold_paths : man -> t -> init:'a -> f:('a -> (int * bool) list -> 'a) -> 'a
(** Fold over all paths to the 1 terminal (as partial assignments). Intended
    for small BDDs (tests, counterexample reporting). *)
