(** A small, dependency-free JSON value type with a printer and a parser.

    Exists so the observability artifacts (Chrome traces, metrics summaries,
    bench emissions) can be produced — and validated back, in tests and CI —
    without pulling a JSON library into the build. The printer always emits
    valid JSON (floats are clamped away from [nan]/[inf]; every finite
    float prints in digits that read back as the same float); the parser
    accepts standard JSON, decoding [\uXXXX] escapes to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for artifacts meant to be read raw. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an error.
    Numbers without [.]/[e] parse as [Int], others as [Float]. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing fields and non-objects. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option
val to_str : t -> string option

(** {2 Decoders}

    Field accessors for decoders that stop at the first problem and report
    it. Each takes the field name and the enclosing object. *)

val field : string -> t -> (t, string) result
(** The named member; [Error "missing field ..."] when absent. *)

val decode : string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** The named member, decoded by [f]. *)

val as_str : string -> t -> (string, string) result
val as_int : string -> t -> (int, string) result
val as_float : string -> t -> (float, string) result
val as_bool : string -> t -> (bool, string) result
val as_list : string -> t -> (t list, string) result

val as_opt_str : string -> t -> (string option, string) result
(** A string, or [None] for [null]. *)

val as_opt_int : string -> t -> (int option, string) result

val as_str_list : string -> t -> (string list, string) result

val map_result :
  ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [f] over the list in order, or the first error. *)
