(** Pure helpers of the performance benchmark: order statistics, the
    metric-name rule, the verdict oracle and the JSON record. Kept apart
    from the workloads so the fast test can check them without running a
    campaign. *)

(** {2 Order statistics} *)

val quantile : float list -> float -> float
(** [quantile xs p] for [p] in [[0, 1]], by linear interpolation between
    the two closest ranks of the sorted sample. Raises [Invalid_argument]
    on an empty list. *)

val median : float list -> float

val tail_percentile : int -> int option
(** The highest of the 75th, 90th, 95th, 99th and 99.9th percentiles (as
    per-mille: 750, 900, …) that still has at least ten of [n] samples
    beyond it, or [None] when [n] is too small for even the 75th. *)

(** {2 Metrics} *)

val valid_name : string -> bool
(** A metric or workload name: 1 to 64 characters of [[A-Za-z0-9_.-]],
    starting with a letter or a digit. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;  (** the median of the samples *)
  q1 : float;
  q3 : float;
  n : int;
}

val metric : string -> string -> float list -> metric
(** [metric name unit samples]; raises [Invalid_argument] on an invalid
    name or no samples. *)

(** {2 Verdict oracle} *)

type totals = {
  properties : int;
  proved : int;
  failed : int;
  resource_out : int;
  errors : int;
}

val baseline_row : Obs.Json.t -> string -> totals option
(** The verdict totals of the run labelled [label] in a bench record or in
    the committed [BENCH_baseline.json]. *)

val oracle : expected:totals -> totals -> unexplained_failures:int ->
  string list
(** One line per disagreement between a campaign's totals and the known
    answer, plus one when failed rows carry no seeded bug. Empty when the
    outputs are correct. *)

(** {2 Records} *)

type record = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  attempted : int;  (** units whose outputs were checked *)
  failed : int;  (** of those, units with any mismatch *)
  mismatches : string list;  (** distinct disagreements, for the report *)
  metrics : metric list;  (** the metrics the summary line reports *)
  raw : metric list;  (** supporting measurements, kept in the record only *)
  wall_samples : float list;  (** untraced unit times, in run order *)
  totals : totals;  (** verdict totals of one unit *)
}

val record_json : record -> Obs.Json.t
(** Schema ["dicheck-perf-v1"]: every metric (and every [raw] one) with its
    median, quartiles and sample count, the raw unit times, and a one-entry
    ["runs"] list (label = workload, [wall_s] = the [wall_s] metric,
    verdict totals) in the shape {!Obs.Bench_diff.diff} reads, so two
    records of one workload can be compared with [bench/main.exe diff]. *)

val correct : record -> bool
(** No unit failed and no mismatch was recorded. *)

val crashed :
  workload:string -> seed:int -> seconds:int -> traced:bool -> string ->
  record
(** The record of a workload that raised the given error: one attempted
    unit, failed, and no metrics. *)

val result_line : record list -> string
(** The one-line summary printed last, for tools that compare runs:
    [correct], [attempted], [failed] and each metric's value and unit.
    Over several records the counts are summed and each metric name is
    prefixed by its workload, as in ["campaign.wall_s"]. *)
