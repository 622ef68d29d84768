(** Live campaign status: a mutable model the campaign runtime updates as
    obligations finish, retry, race and heal, snapshotted on demand into the
    versioned ["dicheck-status-v1"] JSON the status socket serves.

    The model is deliberately small: a dozen counters under one mutex,
    taken for a few field writes per obligation — noise next to an engine
    run. Its in-flight rows are not kept here: a snapshot reads them from
    the workers' {!Obs.Telemetry} lanes, so a reader sees not just "lane 3
    is on [alu0.p2_parity], attempt 1, 12s in" but "… inside ic3 at frame 9
    with 412 clauses {e right now}", and lane 3 is the domain that trace
    thread [domain-3] and the flight dump's lane 3 name.

    The ETA divides elapsed wall time by {e fresh} completions (cache hits
    return in microseconds and would skew a naive done/elapsed rate),
    scaled to the remaining obligation count — crude, but self-correcting
    as the campaign progresses.

    {!serve} exposes snapshots over a Unix domain socket with a
    one-snapshot-per-connection protocol: connect, read JSON until EOF,
    done. Readers cost the campaign one select wakeup and one snapshot —
    they can poll as fast as they like. *)

type t

type verdict_class = [ `Proved | `Failed | `Resource_out | `Error ]

type snapshot = {
  s_phase : string;  (** ["starting"], ["campaign"], ["healing"], ["done"] *)
  s_elapsed_s : float;
  s_jobs : int;
  s_total : int;
  s_done : int;
  s_proved : int;
  s_failed : int;
  s_resource_out : int;
  s_errors : int;
  s_cache_hits : int;
  s_retries : int;
  s_healed : int;  (** conclusive verdicts owed to the self-healing layer *)
  s_raced : int;  (** obligations decided by the racing scheduler *)
  s_rate_per_s : float;  (** completions per wall second so far *)
  s_eta_s : float option;  (** [None] until a completion exists to project *)
  s_in_flight : Obs.Telemetry.in_flight list;
      (** {!Obs.Telemetry.in_flight}, sorted by lane *)
}

val create : ?jobs:int -> unit -> t
(** A fresh model; [jobs] is advisory display data. Pass it to
    {!Campaign.run}'s [?status] and the runtime does the rest; a campaign
    given none keeps a private one, whose snapshots feed its
    [?progress] callback. *)

val set_total : t -> int -> unit
val set_phase : t -> string -> unit

val finish :
  t -> verdict:verdict_class -> cache_hit:bool -> raced:bool -> healed:bool ->
  unit
(** One obligation completed: bumps [done] and the verdict tally, and
    attributes cache/race/heal flags. *)

val retry : t -> unit

val reclassify : t -> to_:verdict_class -> unit
(** The healing pass replaced a [Resource_out] verdict: move one count from
    [resource_out] to [to_], bumping [healed] when conclusive. *)

val snapshot : t -> snapshot
val snapshot_json : t -> Obs.Json.t
(** Schema ["dicheck-status-v1"]. *)

type server

val serve : t -> path:string -> server
(** Bind a Unix domain socket at [path] (an existing file is replaced) and
    serve one pretty-printed {!snapshot_json} per accepted connection from
    a background domain. Raises as [Unix.bind]/[listen] do on an unusable
    path. *)

val shutdown : server -> unit
(** Stop the accept loop, join its domain, close and unlink the socket. *)
