(** Obligation executor: one scheduler at every job count.

    Every call runs the same loop: [jobs] workers (the calling domain
    counts as one, so one job spawns no domain) open items in index order
    and run the attempts of open groups. Results land at their input's
    index, so ordering is deterministic and identical at every job count,
    and an item that raises becomes [Error exn] at its index while every
    other item still runs to completion. *)

type t
(** A job count. *)

val of_jobs : int option -> t
(** [None] and [Some j] for [j <= 1] are one job. *)

val jobs : t -> int

val map_result : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Order-preserving map with per-item crash isolation:
    {!race_map_result} with every item [Done]. One poisoned obligation
    cannot lose the rest of a campaign. *)

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
(** Order-preserving map over speculative task groups. [open_ x] prepares
    item [x] (outside the scheduler lock; cache lookups belong here) and
    either settles it immediately ([Done]) or fans it out into [attempts]
    alternative runs ([Race]).

    {b Scheduling.} A free worker takes the next undispatched attempt of
    the oldest open group, and opens the next item only when no open group
    has one, so items open in index order, a group's attempts start in
    index order, and at most [jobs] attempts, of one group or several, run
    at once. At one job each group runs its attempts one after another
    before the next item opens.

    {b Determinism.} A group settles on the smallest attempt index [w]
    whose result is conclusive (or whose run raised) once attempts
    [0..w-1] have all completed; [combine] then receives exactly the
    results of attempts [0..w] in index order (or all attempts when none
    conclude) — never a result from a speculative attempt beyond the
    first conclusive one. One job produces the same prefix, so the settled
    value of every group is identical at every job count and across runs:
    racing changes wall time, not answers.

    {b Cancellation.} The moment an attempt completes conclusively (or
    raises), every higher-indexed sibling's [cancel] hook starts
    returning [true] and no further sibling is dispatched; cancelled
    attempts still complete cooperatively and their results are dropped
    from attribution (but any side effects — perf counters an attempt
    records into its own result — were observed by the attempt itself).
    At one job no sibling is running when an attempt concludes, so
    [cancel] never fires.

    Emits [exec.race_groups], [exec.race_attempts], [exec.race_cancelled]
    telemetry counters and the [exec.race_cancel_s] histogram of
    cancellation latency, measured from cancellation request to the loser's
    cooperative return. *)
