(** Counterexample traces. *)

type cycle = {
  step : int;
  inputs : (string * Bitvec.t) list;
  state : (string * Bitvec.t) list;
}

type t = cycle list
(** Chronological; the last cycle exhibits the violation. *)

val length : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val replay_stimulus : t -> (string * Bitvec.t) list list
(** Per-cycle input vectors, ready to feed to the simulator to confirm the
    counterexample. *)

val bindings_to_json : (string * Bitvec.t) list -> Obs.Json.t
(** [[{"signal": name, "value": bits}, …]], the value in binary, most
    significant bit first (so the width is the string's length). The one
    encoding of signal values in every artifact: cached counterexamples
    and diagnosis stimuli. *)

val bindings_of_json : Obs.Json.t -> ((string * Bitvec.t) list, string) result

val to_json : t -> Obs.Json.t
(** One [{"step", "inputs", "state"}] object per cycle. *)

val of_json : Obs.Json.t -> (t, string) result
(** [of_json (to_json t) = Ok t]. *)

val vcd_id : int -> string
(** Bijective base-94 VCD identifier code of a signal index (printable
    ASCII [!]..[~]; two characters from index 94, three from 8930, …).
    Injective for every index, so dumps with more than 94 signals never
    alias identifiers. Raises [Invalid_argument] on a negative index. *)

val to_vcd : ?replay:(string * Bitvec.t) list list -> t -> string
(** Render the counterexample as a VCD waveform, one timestep per cycle.
    Without [replay], only the trace's inputs and state are dumped. With
    [replay] — one snapshot of replayed signal values per cycle, as produced
    by simulating the counterexample — the dump also carries every replayed
    output and internal signal (e.g. the [HE] report bus and the monitor's
    fail net), so the waveform shows the violation itself, not just the
    stimulus that causes it. Replayed values for signals the trace already
    carries are ignored in favor of the trace's own. *)
