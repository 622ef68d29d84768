(** The one per-domain recorder: spans, counters and histograms for a
    collector, a bounded ring of recent events for the flight recorder, and
    the in-flight cell that says which obligation each worker holds.

    The design point is the campaign runtime: OCaml 5 domains running proof
    obligations concurrently, each recording which phase it is in
    (cone-of-influence reduction, monitor synthesis, reach fixpoint, BMC
    unroll, …), how much engine work it performed, what just happened and
    what it is doing right now — without cross-domain mutable races and
    without taxing the hot paths.

    - {b one lane per domain}: each domain gets one lane (one
      [Domain.DLS] key), numbered by its domain id. The span [tid], the
      flight event [lane] and the in-flight row's [f_lane] are all that id,
      so a trace thread [domain-N], a flight dump's lane [N] and a status
      snapshot's lane [N] name the same worker. Only the owning domain
      writes its lane, so records never contend.
    - {b near-zero cost when disabled}: with no collector ({!active}
      [= false]) {!count}, {!observe} and {!span}, and with no recorder
      ({!recording} [= false]) {!event}, are a single atomic probe
      increment plus one load-and-branch — no allocation on that path,
      which the test suite checks via {!calls_probe} and [Gc.minor_words].

    The intended granularity is {e per solve / per phase}, not per BDD node
    or per SAT conflict: engines keep their own cheap internal counters (a
    solver's stats record, a BDD manager's arena size) and report them here
    in bulk with [count ~n] when a solve or phase completes, and their
    {!progress} once per iteration. *)

(** {1 The collector} *)

type span = {
  name : string;  (** e.g. ["bdd-combined"] or ["fsm_ctrl/p0_soundness"] *)
  cat : string;  (** grouping: ["engine"], ["prepare"], ["obligation"], … *)
  ts_us : float;  (** start time, microseconds since the collector started *)
  dur_us : float;
  alloc_mw : float;
      (** minor words allocated by the recording domain during the span
          (children included) — per-phase GC-pressure attribution *)
  tid : int;  (** lane: the recording domain's id *)
  args : (string * string) list;
}

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** 0.0 when the histogram is empty *)
  h_max : float;  (** 0.0 when the histogram is empty *)
  h_buckets : int array;
      (** cumulative-free counts per bucket: [h_buckets.(i)] observations
          fell in [(bucket_bounds.(i-1), bucket_bounds.(i)]]; the final
          entry is the overflow bucket *)
}
(** A merged log-scale histogram — the first-class generalization of the
    executor's one-off cancellation-latency bucket counters. *)

val bucket_bounds : float array
(** The shared upper bounds, [1e-6 … 100.0] in decades; every histogram has
    [Array.length bucket_bounds + 1] buckets (the last is overflow). *)

type report = {
  wall_s : float;  (** collector lifetime, {!start} to {!stop} *)
  domains : int;  (** distinct domains that recorded anything *)
  counters : (string * int) list;  (** merged across domains, sorted *)
  hists : (string * hist) list;  (** merged across domains, sorted *)
  spans : span list;  (** merged, sorted by start time *)
}

val start : unit -> unit
(** Install a fresh collector. Subsequent {!count}/{!span} calls from any
    domain record into their lane's buffer for it. A collector already
    active is replaced (its data is dropped); collectors are
    process-global, so tests and drivers should bracket campaigns with
    [start]/[stop]. *)

val stop : unit -> report
(** Uninstall the active collector and merge its per-lane buffers:
    counters are summed, spans concatenated and sorted. Returns an empty
    report when no collector is active. *)

val active : unit -> bool

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to the named monotonic counter in the calling
    domain's buffer. Free (and allocation-free) when no collector is
    active. Use suffix [_us] for time-valued counters — consumers treat
    those as non-deterministic when diffing runs. *)

val observe : string -> float -> unit
(** Record one observation into the named histogram in the calling domain's
    buffer (log-scale buckets per {!bucket_bounds}; merged across domains
    by {!stop}). Free when no collector is active. Use suffix [_s] for
    latencies in seconds. *)

val span : ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [span name f] times [f ()] and records a completed span in the calling
    domain's buffer, including when [f] raises (the exception is
    re-raised). When no collector is active, [span name f] is just [f ()]. *)

val calls_probe : unit -> int
(** Process-lifetime total of {!count}, {!observe}, {!span} and {!event}
    invocations, recorded whether or not a collector or recorder is
    active — the hook the zero-overhead tests use to prove the disabled
    path was actually exercised. *)

val counter : report -> string -> int
(** Merged value of a counter, 0 when absent. *)

val hist : report -> string -> hist option
(** Merged histogram by name. *)

(** {1 The flight recorder}

    The collector answers "how much work happened" after a clean run; the
    recorder answers "what was happening just now" when a run is anything
    but clean — hung, killed, crashed or resource-out. Each lane keeps a
    fixed-size ring of its recent events: a record is five array stores
    and a counter bump, with no allocation beyond the strings the caller
    already built, and memory is bounded by [capacity × lanes]. An event
    takes its obligation name and cache key from the lane's in-flight
    cell, so callers pass only what happened. *)

type event = {
  seq : int;  (** per-lane sequence number, 0-based from {!recorder_start} *)
  t_s : float;  (** absolute Unix time of the record *)
  lane : int;  (** the recording domain's id *)
  kind : string;  (** e.g. ["ob.done"], ["ob.retry"], ["race.cancelled"] *)
  ob : string;  (** the lane's obligation, [""] when it held none *)
  key : string;  (** that obligation's cache key, [""] when none *)
  detail : string;  (** free-form payload, e.g. ["proved ic3"] *)
}

val recorder_start : ?capacity:int -> unit -> unit
(** Install a fresh recorder whose per-lane rings hold the last [capacity]
    (default 512) events each. An already-active recorder is replaced and
    its events are dropped. Raises [Invalid_argument] on [capacity < 1]. *)

val recorder_stop : unit -> unit
(** Uninstall the recorder; subsequent {!event}s are free no-ops. *)

val recording : unit -> bool

val event : ?detail:string -> string -> unit
(** Append one event to the calling domain's ring, overwriting the oldest
    once the ring is full. *)

val events : unit -> event list
(** Merge every lane's surviving events, sorted by [(t_s, lane, seq)] —
    so each lane's events appear in recording order, interleaved across
    lanes by time. Empty when no recorder is active. Lanes still recording
    concurrently may contribute one torn event; quiesced rings merge
    exactly. *)

val dropped : unit -> int
(** Total events overwritten (recorded beyond ring capacity) across all
    lanes, 0 when inactive. *)

val flight_json : reason:string -> unit -> Json.t
(** The merged snapshot as schema ["dicheck-flight-v2"]: [reason] (e.g.
    ["sigusr1"], ["crash"], ["resource-out"]), dump time, capacity, lane
    and dropped counts, and the event list, each event with its [ob] and
    [key]. *)

val dump_flight : reason:string -> string -> unit
(** Write {!flight_json} pretty-printed to a file. *)

(** {1 The in-flight cell}

    Each lane holds one cell: the obligation it is working on, and the
    engine progress reported since that obligation began. The cell is
    always on; a write is a handful of field stores on domain-local state,
    so the engines report from their loops at the sites they poll the
    deadline. *)

type progress = {
  p_engine : string;  (** e.g. ["bdd-forward"], ["bmc"], ["ic3"] *)
  p_step : int;  (** engine-specific progress: k, frame or fixpoint iter *)
  p_work : int;  (** engine-specific size: BDD nodes, CNF vars or clauses *)
  p_age_s : float;  (** seconds since the engine last reported *)
}

type in_flight = {
  f_lane : int;  (** the domain's id *)
  f_obligation : string;  (** ["module.property"] *)
  f_key : string;  (** its cache key *)
  f_engine : string;  (** strategy (or racing member) being attempted *)
  f_attempt : int;  (** retry rung, or member index + 1 under racing *)
  f_elapsed_s : float;  (** since the obligation (or attempt) began *)
  f_progress : progress option;  (** [None] until an engine reports *)
}

val begin_obligation :
  ob:string -> key:string -> engine:string -> attempt:int -> unit
(** The calling domain's lane takes up obligation [ob] under cache key
    [key]: the cell's clock restarts, and its step and work are cleared so
    stale progress never outlives its obligation. A later call replaces the
    cell (retry rungs, racing members). *)

val progress : engine:string -> step:int -> work:int -> unit
(** Overwrite the calling domain's engine progress. *)

val end_obligation : unit -> unit
(** The calling domain's lane is idle again: its row leaves {!in_flight}
    (idempotent). *)

val in_flight : unit -> in_flight list
(** One row per live domain holding an obligation, sorted by lane. *)
