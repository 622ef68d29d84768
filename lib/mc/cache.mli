(** Structural result cache for proof obligations, and the campaign's
    checkpoint.

    Maps obligation fingerprints ({!Obligation.fingerprint}) to engine
    outcomes, so structurally identical checks — sibling subunits within a
    chip category, or the post-fix re-campaign over unchanged modules — are
    answered without re-proving. Thread-safe: a single cache may be shared
    by every worker of a parallel executor, and across campaign runs within
    one process.

    A cache {!open_file}d on a file is also a crash checkpoint: {!add}
    appends one fsync'd line before it returns, so a killed campaign
    leaves each verdict it recorded on disk, and running it again on the
    same file answers those from the cache. {!save} and {!load} write and
    read the same format as a whole.

    The store holds a second kind of entry, the cell record: it maps the
    digest of a shared-preparation cell ({!Obligation.cell_digest}) to the
    cell's ordered obligation keys, so that a warm campaign can look a
    cell's verdicts up without preparing it. {!length}, {!hits} and
    {!misses} count verdicts only; {!cells} counts cell records.

    File format ({!schema}): the header line [{"schema":"dicheck-cache-v5"}],
    then one JSON object per line, either a verdict
    [{"key":…,"outcome":…,"md5":…}] or a cell record
    [{"cell":DIGEST,"keys":[…],"md5":…}]. The outcome carries its verdict
    (a [Failed] one with its trace), engine, time, work measures and
    {!Engine.perf} (positional: its twelve counters, then the attempts);
    the decoder requires every field. The [md5] member digests the line's
    text before it, so a record that was torn or altered is dropped
    instead of read as a verdict nobody wrote. Reading stops at the first
    such record; when one key (or one digest) appears more than once, the
    later line wins, so a healed verdict overrides the resource-out it
    replaced and a rewritten cell record the stale one before it.

    A reused [Failed] verdict carries the counterexample trace of the
    obligation that first populated the entry; for a structurally identical
    sibling the trace is isomorphic but names the first sibling's signals. *)

type t

val create : unit -> t
(** An empty cache held in memory only. *)

val find : t -> key:string -> Engine.outcome option
(** Lookup that counts: a hit bumps [hits], a miss bumps [misses]. Runs
    in a [cache/cache.find] telemetry span. Never waits on a file write. *)

val add : t -> key:string -> Engine.outcome -> unit
(** Insert (or overwrite) an entry. The caller decides what to cache:
    e.g. the campaign excludes [Error] verdicts so a transient crash cannot
    poison structurally identical siblings. On a cache opened on a file,
    an entry that differs from the one held is appended and fsync'd before
    [add] returns; appends are serialized under their own lock. If the
    file cannot be written, [add] warns once on stderr and keeps later
    entries in memory only. *)

val find_cell : t -> digest:string -> string list option
(** The keys of the cell record at [digest], in the cell's property order.
    Counts nothing: a cell lookup is not a verdict lookup. *)

val add_cell : t -> digest:string -> string list -> unit
(** Insert (or overwrite) a cell record, written to the file like {!add}:
    appended and fsync'd when it differs from the record held. *)

val length : t -> int
(** Verdicts held. *)

val cells : t -> int
(** Cell records held. *)

val hits : t -> int
val misses : t -> int

val open_file : string -> t
(** The cache stored at [path], appending every later {!add} to it. A
    missing or empty file starts a fresh store. A torn or corrupt tail is
    cut off, with a warning, before anything is appended after it. A file
    in another format (an older build's, say) is replaced by a fresh
    store, with a warning. If [path] cannot be opened for writing, the
    loaded entries are kept in memory only, with a warning. Statistics
    start at zero. *)

val close : t -> unit
(** Release the file of an {!open_file}d cache (idempotent; a no-op on a
    cache held in memory). The entries stay usable in memory. *)

val save : t -> string -> unit
(** Write every entry, cell records included, to [path] in one piece. Atomic: the entries are
    written to a temp file, fsync'd and renamed over [path], so a crash
    mid-save can never leave a truncated cache. Never save over the file
    a cache is open on: its later appends would go to the replaced file. *)

val load : string -> t option
(** The entries stored at [path], in memory only. [None] if the file is
    missing or unreadable. A file in another format loads as no entry, a
    torn or corrupt tail is dropped, and both warn on stderr. Never raises
    on bad file contents. Statistics start at zero. *)

val schema : string
(** ["dicheck-cache-v5"]. Bump it, and commit a fixture written in the new
    format, whenever a record kind, {!Engine.outcome} or anything it holds
    changes shape. *)

val outcome_to_json : Engine.outcome -> Obs.Json.t

val outcome_of_json : Obs.Json.t -> (Engine.outcome, string) result
(** [outcome_of_json (outcome_to_json o) = Ok o] for every outcome with
    finite times. Fails on a missing field. *)
