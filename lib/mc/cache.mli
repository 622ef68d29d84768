(** Structural result cache for proof obligations.

    Maps obligation fingerprints ({!Obligation.fingerprint}) to engine
    outcomes, so structurally identical checks — sibling subunits within a
    chip category, or the post-fix re-campaign over unchanged modules — are
    answered without re-proving. Thread-safe: a single cache may be shared
    by every worker of a parallel executor, and across campaign runs within
    one process. [save]/[load] persist it across processes.

    A reused [Failed] verdict carries the counterexample trace of the
    obligation that first populated the entry; for a structurally identical
    sibling the trace is isomorphic but names the first sibling's signals. *)

type t

val create : unit -> t

val find : t -> key:string -> Engine.outcome option
(** Lookup that counts: a hit bumps [hits], a miss bumps [misses]. Runs
    in a [cache/cache.find] telemetry span. *)

val add : t -> key:string -> Engine.outcome -> unit
(** Insert (or overwrite) an entry. The caller decides what to cache:
    e.g. the campaign excludes [Error] verdicts so a transient crash cannot
    poison structurally identical siblings. *)

val length : t -> int
val hits : t -> int
val misses : t -> int

val save : t -> string -> unit
(** Persist entries to a file (OCaml [Marshal] behind a format tag).
    Atomic: the entries are written to a temp file, fsync'd and renamed
    over [path], so a crash mid-save can never leave a truncated cache. *)

val load : string -> t option
(** [None] if the file is missing, unreadable, truncated, corrupt, or from
    another format version; anything but "missing" warns on stderr.
    Never raises on bad file contents. Statistics start at zero. *)

val load_or_create : string -> t
