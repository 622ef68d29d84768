(** The full formal-verification campaign over the chip: every stereotype
    property of every leaf module, with the engine escalation the paper
    describes. Regenerates the data behind Table 2.

    The campaign is a scheduler over first-class proof obligations
    ({!Mc.Obligation}): enumeration produces one work item per assert,
    preparation + execution run on the {!Executor}'s [?jobs] workers (OCaml
    5 domains), and every check is answered through a structural result
    cache ({!Mc.Cache}) keyed on the reduced netlist's canonical
    fingerprint — so the N structurally identical subunits of a category
    are proved once.

    {b The claim rule.} A lookup that misses claims its key, and the claim
    is released once the key's verdict is recorded, or when the item ends
    without one (an [Error], a crash in preparation, a stale cell record
    asked again under its fresh key). A lookup of a claimed key waits for
    the release and then reads the store again, so a structural sibling
    becomes a cache hit; after an [Error] the next sibling runs its own
    check. Items look their keys up in index order, as one job does, and
    healing pieces claim their keys the same way. Only wall time depends
    on the schedule: every other column of a row, [cache_hit] and
    [attempts] included, and the cache's hit and miss counts are the same
    at every job count. A waiting sibling holds its lane, with its key, in
    the live status ([dicheck top]) until it is answered.

    Preparation is shared by every module of one structure (a cell: the
    module with its name blanked plus its properties' formulas), and a cell
    is prepared only when needed. The first time a run reaches a cell, it
    looks the cell's digest ({!Mc.Obligation.cell_digest}) up in the cache.
    With a cell record there, each item takes its key from the record, and
    the cell is prepared only when one of those keys misses: a cell whose
    every key hits is never inlined, monitored, elaborated, COI-reduced or
    fingerprinted. Without one, the cell is prepared at once and its record
    written. A cell prepared despite a record compares its fresh keys with
    the record's; a difference warns on stderr, counts [cell.stale], and
    rewrites the record, and the item's key is asked again in its fresh
    form. The [cell.hit] and [cell.miss] telemetry counters count cells
    found and not found, and each hit records a [cell.hit] flight event
    whose detail is the digest and the module.

    The runtime is fault-tolerant in three layers:
    - {b deadlines} — set [wall_deadline_s] in the budget and any obligation
      that overruns it yields [Resource_out "deadline"] instead of hanging a
      worker;
    - {b crash isolation + retry} — an obligation whose engine run raises is
      retried with a degraded budget ({!Mc.Engine.degrade_budget}) after a
      constant pause, at most [max_retries] times; a crash on the last rung
      becomes an {!Mc.Engine.Error} verdict in its row, and the executor's
      per-item isolation catches anything that escapes (e.g. a crash in
      preparation), so one poisoned obligation can never lose the rest of
      the campaign;
    - {b checkpoint/resume} — pass a cache opened on a file
      ({!Mc.Cache.open_file}) and every verdict is fsync'd to it as it is
      recorded; running the campaign again on the same file answers those
      obligations from the cache without re-running engines. [Error]
      verdicts are never cached, so transient crashes are re-attempted on
      the next run. *)

type prop_result = {
  category : string;
  module_name : string;
  vunit_name : string;
  prop_name : string;
  cls : Verifiable.Propgen.prop_class;
  outcome : Mc.Engine.outcome;
  bug : Chip.Bugs.id option;  (** bug seeded in the module, if any *)
  cache_hit : bool;
      (** verdict reused from the structural cache — in this run, or from
          the file of an earlier or killed one *)
  attempts : int;
      (** engine runs performed for this result: 1 for a clean fresh run,
          [> 1] after crash retries, 0 for cache hits *)
  healed : bool;
      (** the verdict is conclusive {e because} the self-healing layer
          recovered it from a [Resource_out] (engine attribution
          {!Heal.engine_name}) — set both when healed in this run and when a
          healed verdict comes from the cache *)
}

type row = {
  cat : string;
  subs : int;
  bugs_found : int;  (** defective modules whose seeded bug was exposed *)
  p0 : int;
  p1 : int;
  p2 : int;
  p3 : int;
  total : int;
  proved : int;
  failed : int;
  resource_out : int;
  errors : int;  (** obligations that crashed through the whole retry ladder *)
  time_s : float;
}

type work = {
  w_category : string;
  w_mdl : Rtl.Mdl.t;  (** the Verifiable-RTL leaf the property binds to *)
  w_vunit_name : string;
  w_prop_name : string;
  w_assert : Psl.Ast.fl;
  w_assumes : Psl.Ast.fl list;
  w_cls : Verifiable.Propgen.prop_class;
  w_bug : Chip.Bugs.id option;
}
(** One schedulable unit of campaign work: everything needed to prepare and
    run a single property check, plus its provenance. Exposed so downstream
    consumers (e.g. the counterexample diagnosis layer) can re-prepare the
    exact obligation behind a campaign result row. *)

val work_items : Chip.Generator.t -> work list
(** The campaign's work list in scheduling order: one item per assert of
    every stereotype vunit of every leaf, matching [run]'s result order. *)

type heal_totals = {
  heal_attempted : int;  (** resource-out obligations handed to the healer *)
  heal_recovered : int;  (** converted to a conclusive verdict *)
  heal_proved : int;
  heal_failed : int;  (** real failures confirmed by concrete replay *)
  heal_exhausted : int;
      (** gave up after the CEGAR budget — now [Resource_out
          "heal-exhausted"] *)
  heal_unhealable : int;  (** cone held no usable cuts; verdict untouched *)
  heal_spurious : int;  (** counterexamples refuted by concrete replay *)
  heal_cegar_iters : int;  (** freed-cut final checks run, total *)
  heal_subs_proved : int;  (** parity sub-proofs that succeeded *)
  heal_bad_cuts : int;  (** mined candidates skipped as unfreeable *)
  heal_pieces : int;  (** derived obligations consulted, incl. cache hits *)
  heal_wall_s : float;
}
(** Recovery-pass totals of one run. A run that finds already healed
    verdicts in its cache reports those under {!prop_result.healed} (and
    the metrics' [healed_rows]), not here — these count this run's own
    work. *)

type t = {
  results : prop_result list;
  rows : row list;  (** one per category, in A..E order *)
  grand_total : row;
  wall_time_s : float;
  cache_hits : int;  (** result rows flagged [cache_hit] *)
  retries : int;  (** crash re-runs behind the result rows' [attempts] *)
  healing : heal_totals option;  (** present iff [run] got [?self_heal] *)
}

val run :
  ?budget:Mc.Engine.budget ->
  ?strategy:Mc.Engine.strategy ->
  ?progress:(Status.snapshot -> unit) ->
  ?jobs:int ->
  ?cache:Mc.Cache.t ->
  ?max_retries:int ->
  ?fault_hook:
    (module_name:string ->
    prop_name:string ->
    fingerprint:string ->
    attempt:int ->
    unit) ->
  ?self_heal:int ->
  ?status:Status.t ->
  Chip.Generator.t ->
  t
(** [jobs] is the number of workers: absent or [<= 1] runs on the calling
    domain alone, [n] on [n] domains, and with more than one every cell's
    keys are resolved, cells in parallel, before the items are opened.
    [cache] is the structural result cache; a private one is created per
    run when absent (deduplicating within the run), while passing a shared
    cache additionally reuses verdicts across runs — e.g. the post-fix
    re-campaign. A cache opened on a file ({!Mc.Cache.open_file}) is the
    run's checkpoint: each recorded verdict is on disk before the
    obligation counts as done.

    [strategy] (default [Auto]) picks the engines. A [Portfolio p] on more
    than one job races its members ({!Executor.race_map_result}): each
    cache-missing obligation fans out into one speculative engine run per
    member, the first conclusive verdict cancels the surviving siblings, and
    {!Mc.Engine.combine_portfolio} folds the attributed prefix. On one job
    the same portfolio runs as the engine's sequential short-circuiting
    ladder, and [Auto] runs its members one at a time whatever the job
    count, so verdicts, attributed perf and cache keys are
    identical between the two modes — racing changes wall time, not
    answers. Under racing, member crashes become non-conclusive [Error]
    member outcomes (no retry ladder) and [fault_hook] runs once per member
    with [attempt] = member index + 1.

    Every obligation, including each healing piece, is answered the same
    way: a cache hit, else an engine run whose verdict is cached (unless
    it is an [Error]). [max_retries] (default 2) caps crash re-runs per
    obligation; each retry degrades the budget via
    {!Mc.Engine.degrade_budget} after a constant 50 ms pause. [fault_hook],
    intended for tests, runs in the worker just before each real engine
    attempt (never for cache hits) — it can count engine
    invocations or inject crashes.

    [status] is the run's live {!Status} model; a private one is kept when
    it is absent. The runtime keeps it current: totals and phase on entry,
    verdict tallies and cache/race/heal attribution as obligations finish,
    and reclassification as the healing pass recovers resource-outs. Each
    worker's {!Obs.Telemetry} lane holds the obligation it works on, with
    its cache key, from the cache lookup through every engine attempt
    (including racing members, retry rungs and healing), and the model's
    snapshots read their in-flight rows from the lanes. It is
    purely observational — it never affects scheduling, verdicts or keys,
    so every job count reports the same rows with or without it. [progress]
    receives the model's {!Status.snapshot} after every completed
    obligation, possibly from a worker domain but serialized under a lock,
    so [s_done] counts 1, 2, …, [s_total] in order. The runtime also
    records flight-recorder events ([ob.done], [ob.retry], [race.member],
    [heal.*]), each naming its lane's obligation and key, whenever
    {!Obs.Telemetry.recorder_start} has installed a recorder.

    [self_heal] turns on the automatic Figure 7 recovery pass
    ({!Heal.heal_one}) over every [Resource_out] result, with at most
    [self_heal] freed-cut final checks per obligation. Each distinct
    monolithic key is healed once, on its first resource-out row, and its
    other rows take that result, as the cache answers structural siblings
    in the main pass; every row still counts in the [healing] totals, and
    the [heal.*] telemetry counters count the work done per key. Healing
    pieces are
    looked up and run like first-class obligations under cut-salted
    fingerprints, and a healed verdict is cached under the monolithic
    key after the original resource-out record — so a rerun on the same
    cache file gets the healed verdict without re-proving any piece. The
    pass is parallelized across obligations on the same executor and is
    deterministic: at every job count, raced or not, a campaign heals to
    identical verdicts and solves each piece once. *)

val failed_results : t -> prop_result list

val pp_table2 : Format.formatter -> t -> unit
(** The paper's Table 2, plus an [RO] (resource-out) column and, when any
    obligation ran out of resources, a final ["resource-out causes:"] line
    breaking the RO count down by canonical cause
    ({!Mc.Engine.resource_cause}). *)

type perf_totals = {
  engine_time_s : float;  (** summed engine wall time over all results *)
  engine_attempts : int;  (** engine runs, counting escalation stages *)
  fix_iterations : int;
  bdd_peak : int;  (** largest single BDD arena anywhere in the campaign *)
  peak_set_size : int;
  bdd_polls : int;
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  max_unroll_depth : int;  (** [-1] if BMC never ran *)
  max_final_k : int;  (** [-1] if k-induction never ran *)
  max_ic3_frames : int;  (** [-1] if IC3 never ran *)
}
(** Engine-work totals summed (or maxed) over every result row. Cached
    rows carry the perf of the run that originally produced them,
    so these totals are schedule-independent: one job and a pool over the
    same chip agree exactly. *)

val aggregate_perf : t -> perf_totals

val resource_out_causes : t -> (string * int) list
(** Count of [Resource_out] results per canonical cause, in the
    {!Mc.Engine.ro_causes} vocabulary order (any non-canonical cause — which
    would indicate an engine bug — sorts after, alphabetically). *)

val wins_by_engine : t -> (string * int) list
(** Results per winning engine ([outcome.engine_used]), sorted by engine
    name. Under a portfolio this is the per-strategy win count — which
    member's verdict each obligation was attributed to. Cached rows count
    the engine of the producing run, so the tally is
    schedule-independent (one job ≡ race). *)

val perf_json : t -> (string * Obs.Json.t) list
(** {!aggregate_perf} as JSON fields: the ["perf"] object of
    {!to_metrics_json}. *)

val recovery_json : t -> (string * Obs.Json.t) list option
(** {!t.healing} as JSON fields, plus the [healed_rows] count: the
    ["recovery"] object of {!to_metrics_json}. [None] without
    [?self_heal]. *)

val to_metrics_json : ?report:Obs.Telemetry.report -> ?jobs:int -> t -> string
(** The campaign summary as pretty-printed JSON (schema
    ["dicheck-metrics-v1"]): grand totals and per-category rows mirroring
    Table 2, {!aggregate_perf} under ["perf"], {!resource_out_causes},
    {!wins_by_engine} under ["strategy_wins"], and — when a telemetry
    [report] is supplied — the raw sink counters. *)

val write_metrics_json :
  ?report:Obs.Telemetry.report -> ?jobs:int -> t -> string -> unit

val to_csv : t -> string
(** One row per property: category, module, vunit, property, class, verdict,
    resource cause, engine, wall ms, iterations, BDD peak, SAT conflicts,
    cache hit, attempts, bug, healed. Suitable for spreadsheet import or
    regression diffing. *)

val write_csv : t -> string -> unit
