(** Pluggable obligation executor.

    Two backends behind one {!map_result}: a sequential one, and an OCaml 5
    domain pool with a work-stealing index queue. Results land at their
    input's index, so ordering is deterministic and identical across
    backends — the campaign's verdicts do not depend on how the work was
    scheduled. *)

type t

val sequential : t

val pool : jobs:int -> t
(** A pool of [jobs] worker domains (the calling domain counts as one).
    [jobs <= 1] degrades to {!sequential}. *)

val of_jobs : int option -> t
(** [None] and [Some j] for [j <= 1] are {!sequential}. *)

val jobs : t -> int

val map_result : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Order-preserving parallel map with per-item crash isolation. The input
    is split into contiguous per-worker ranges; a worker drains its own
    range from the front and, when empty, steals from the back of the
    busiest remaining range. An application that raises becomes [Error exn]
    at its index — every other item still runs to completion, so one
    poisoned obligation cannot lose the rest of a campaign. *)

type ('b, 'c) group =
  | Done of 'c  (** settled at open time (a cache hit) *)
  | Race of {
      attempts : int;
      run : int -> cancel:(unit -> bool) -> 'b;
          (** [run k ~cancel] executes attempt [k]; [cancel] is the
              cooperative stop hook the attempt must poll. Must not raise in
              normal operation — a raised exception decides the group as
              [Error]. *)
      conclusive : 'b -> bool;
          (** does this attempt settle the group? Must be pure. *)
      combine : 'b list -> 'c;
          (** fold the attributed prefix (attempts [0..w], where [w] is the
              first conclusive attempt, or all attempts when none conclude)
              into the group value. Runs once per group, outside the
              scheduler lock, so it may do I/O (cache appends, progress). *)
    }  (** a speculative group: N alternative attempts at one item *)

val race_map_result :
  t -> ('a -> ('b, 'c) group) -> 'a array -> ('c, exn) result array
(** Order-preserving map over speculative task groups — the portfolio-racing
    generalization of {!map_result}. [open_ x] prepares item [x] (outside
    the scheduler lock; cache lookups belong here) and either
    settles it immediately ([Done]) or fans it out into [attempts]
    alternative runs ([Race]).

    {b Determinism.} A group settles on the smallest attempt index [w]
    whose result is conclusive (or whose run raised) once attempts
    [0..w-1] have all completed; [combine] then receives exactly the
    results of attempts [0..w] in index order (or all attempts when none
    conclude) — never a result from a speculative attempt beyond the
    first conclusive one. The sequential backend runs attempts in index
    order and stops at the first conclusive one, producing the same
    prefix, so the settled value of every group is identical across
    backends and across runs: racing changes wall time, not answers.

    {b Cancellation.} The moment an attempt completes conclusively (or
    raises), every higher-indexed sibling's [cancel] hook starts
    returning [true] and no further sibling is dispatched; cancelled
    attempts still complete cooperatively and their results are dropped
    from attribution (but any side effects — perf counters an attempt
    records into its own result — were observed by the attempt itself).
    On the sequential backend [cancel] never fires.

    {b Scheduling.} On a pool, a free worker takes the next undispatched
    attempt of the oldest open group, so a group's attempts start in index
    order and racing is capped at the pool size: at most [jobs] attempts,
    of one group or several, run at once. Workers prefer advancing
    already-open groups over opening new ones.

    Emits [exec.race_groups], [exec.race_attempts], [exec.race_cancelled]
    telemetry counters and the [exec.race_cancel_s] histogram of
    cancellation latency, measured from cancellation request to the loser's
    cooperative return. *)
