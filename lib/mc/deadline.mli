(** Cooperative deadlines: a wall-clock bound plus an external stop hook.

    A deadline is fixed once when an engine run starts and threaded through
    every long-running loop: the BDD reachability fixpoints, the POBDD
    partition loop, the BMC unroll, the IC3 frame loop, and — as a polling
    callback — the CDCL search and the BDD node allocator. Each loop polls
    the deadline at its natural iteration boundary and raises {!Expired};
    the engine catches it and reports [Resource_out "deadline"] (or
    ["cancelled"] when the stop hook, not the clock, fired), so a
    pathological obligation is cut off in bounded time instead of hanging
    its worker.

    The stop hook is how the racing scheduler cancels a losing portfolio
    member: a sibling's conclusive verdict flips an atomic that the hook
    reads, and the member's next poll unwinds it. *)

type t

exception Expired

val none : t

val after : float -> t
(** A deadline this many seconds from now, with no stop hook. *)

val of_budget : float option -> t
(** Fix a relative budget ({!Engine.budget.wall_deadline_s}) into an
    absolute deadline, now. [None] is {!none}. *)

val with_stop : t -> (unit -> bool) -> t
(** Attach an external cancellation hook: the returned deadline is expired
    as soon as either the original one is, or the hook returns [true].
    Hooks compose — attaching to an already-hooked deadline polls both. *)

val expired : t -> bool
(** Wall clock passed, or the stop hook fired. *)

val wall_expired : t -> bool
(** The wall clock alone — distinguishes a timeout from a cancellation. *)

val cancelled : t -> bool
(** The stop hook alone. *)

val live : t -> bool
(** Whether polling this deadline can ever observe expiry — i.e. it has a
    wall bound or a stop hook. Engines skip installing allocator-level
    interrupt callbacks for deadlines that are not live. *)

val check : t -> unit
(** Raise {!Expired} if the deadline has passed. *)

val checker : t -> unit -> bool
(** [expired] as a thunk — the shape {!Bdd.set_interrupt} and
    [Solver.solve_assuming ?should_stop] expect. *)
