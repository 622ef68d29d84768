module J = Obs.Json

let ( let* ) = Result.bind

(* the file an [open_file]d cache appends to; [fd] is [None] once closed
   or after a failed write *)
type file = {
  path : string;
  file_lock : Mutex.t;
  mutable fd : Unix.file_descr option;
}

type t = {
  tbl : (string, Engine.outcome) Hashtbl.t;
  cells : (string, string list) Hashtbl.t;  (* cell digest -> its keys *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  file : file option;
}

let make file =
  { tbl = Hashtbl.create 1024; cells = Hashtbl.create 64;
    lock = Mutex.create (); hits = 0; misses = 0; file }

let create () = make None

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find c ~key =
  let r =
    Obs.Telemetry.span ~cat:"cache" "cache.find" @@ fun () ->
    with_lock c.lock (fun () ->
        match Hashtbl.find_opt c.tbl key with
        | Some o ->
          c.hits <- c.hits + 1;
          Some o
        | None ->
          c.misses <- c.misses + 1;
          None)
  in
  (match r with
   | Some _ -> Obs.Telemetry.count "cache.hit"
   | None -> Obs.Telemetry.count "cache.miss");
  r

let find_cell c ~digest =
  with_lock c.lock (fun () -> Hashtbl.find_opt c.cells digest)

let length c = with_lock c.lock (fun () -> Hashtbl.length c.tbl)
let cells c = with_lock c.lock (fun () -> Hashtbl.length c.cells)
let hits c = c.hits
let misses c = c.misses

(* ---- the outcome codec ---- *)

let schema = "dicheck-cache-v5"

let verdict_to_json v =
  let kind k rest = J.Obj (("kind", J.String k) :: rest) in
  match v with
  | Engine.Proved -> kind "proved" []
  | Engine.Proved_bounded d -> kind "proved_bounded" [ ("depth", J.Int d) ]
  | Engine.Failed tr -> kind "failed" [ ("trace", Trace.to_json tr) ]
  | Engine.Resource_out cause ->
    kind "resource_out" [ ("cause", J.String cause) ]
  | Engine.Error msg -> kind "error" [ ("message", J.String msg) ]

let verdict_of_json j =
  let* kind = J.as_str "kind" j in
  match kind with
  | "proved" -> Ok Engine.Proved
  | "proved_bounded" ->
    let* d = J.as_int "depth" j in
    Ok (Engine.Proved_bounded d)
  | "failed" ->
    let* tr = J.decode "trace" Trace.of_json j in
    Ok (Engine.Failed tr)
  | "resource_out" ->
    let* cause = J.as_str "cause" j in
    Ok (Engine.Resource_out cause)
  | "error" ->
    let* msg = J.as_str "message" j in
    Ok (Engine.Error msg)
  | other -> Error (Printf.sprintf "unknown verdict kind %S" other)

(* [perf] is positional, its twelve counters then the attempts, so that a
   record does not spell out thirteen field names. Full record patterns: a
   field added to either record fails to compile here until the codec (and
   {!schema}) follow *)
let perf_to_json
    { Engine.bdd_peak; bdd_polls; fix_iterations; peak_set_size;
      sat_decisions; sat_conflicts; sat_propagations; sat_restarts;
      incremental_reuse; unroll_depth; final_k; ic3_frames; attempts } =
  J.List
    (List.map
       (fun n -> J.Int n)
       [ bdd_peak; bdd_polls; fix_iterations; peak_set_size; sat_decisions;
         sat_conflicts; sat_propagations; sat_restarts; incremental_reuse;
         unroll_depth; final_k; ic3_frames ]
    @ [ J.List (List.map (fun a -> J.String a) attempts) ])

let perf_of_json = function
  | J.List
      [ J.Int bdd_peak; J.Int bdd_polls; J.Int fix_iterations;
        J.Int peak_set_size; J.Int sat_decisions; J.Int sat_conflicts;
        J.Int sat_propagations; J.Int sat_restarts; J.Int incremental_reuse;
        J.Int unroll_depth; J.Int final_k; J.Int ic3_frames; J.List names ]
    ->
    let* attempts =
      J.map_result
        (fun a -> Option.to_result ~none:"attempt is not a string" (J.to_str a))
        names
    in
    Ok
      { Engine.bdd_peak; bdd_polls; fix_iterations; peak_set_size;
        sat_decisions; sat_conflicts; sat_propagations; sat_restarts;
        incremental_reuse; unroll_depth; final_k; ic3_frames; attempts }
  | _ -> Error "perf is not twelve integers and a list of attempts"

let outcome_to_json
    { Engine.verdict; engine_used; time_s; iterations; work_nodes; perf } =
  J.Obj
    [ ("verdict", verdict_to_json verdict);
      ("engine_used", J.String engine_used); ("time_s", J.Float time_s);
      ("iterations", J.Int iterations); ("work_nodes", J.Int work_nodes);
      ("perf", perf_to_json perf) ]

let outcome_of_json j =
  let* verdict = J.decode "verdict" verdict_of_json j in
  let* engine_used = J.as_str "engine_used" j in
  let* time_s = J.as_float "time_s" j in
  let* iterations = J.as_int "iterations" j in
  let* work_nodes = J.as_int "work_nodes" j in
  let* perf = J.decode "perf" perf_of_json j in
  Ok { Engine.verdict; engine_used; time_s; iterations; work_nodes; perf }

(* ---- the file format ---- *)

let header = J.to_string (J.Obj [ ("schema", J.String schema) ]) ^ "\n"

(* the text every record line ends with: its md5 member, the digest of
   the line's text before it *)
let seal body =
  Printf.sprintf ",\"md5\":\"%s\"}" (Digest.to_hex (Digest.string body))

let seal_len = String.length (seal "")

(* the store's two record kinds *)
type record =
  | Verdict of string * Engine.outcome  (** a key and its outcome *)
  | Cell of string * string list  (** a cell digest and the cell's keys *)

let line_of record =
  let obj =
    J.to_string
      (J.Obj
         (match record with
          | Verdict (key, o) ->
            [ ("key", J.String key); ("outcome", outcome_to_json o) ]
          | Cell (digest, keys) ->
            [ ("cell", J.String digest);
              ("keys", J.List (List.map (fun k -> J.String k) keys)) ]))
  in
  let body = String.sub obj 0 (String.length obj - 1) in
  body ^ seal body ^ "\n"

let decode_record line =
  let body = String.sub line 0 (max 0 (String.length line - seal_len)) in
  if not (String.ends_with ~suffix:(seal body) line) then None
  else
    Result.to_option
      (let* j = J.parse line in
       match J.member "cell" j with
       | Some _ ->
         let* digest = J.as_str "cell" j in
         let* keys = J.as_str_list "keys" j in
         Ok (Cell (digest, keys))
       | None ->
         let* key = J.as_str "key" j in
         let* o = J.decode "outcome" outcome_of_json j in
         Ok (Verdict (key, o)))

let warn path fmt =
  Printf.eprintf ("warning: result cache %s " ^^ fmt ^^ "\n%!") path

(* The records stored at [path] and the length of their valid prefix — the
   header, then every complete line up to the first that fails its check —
   with a warning for anything that will not be read; [None] if the file is
   missing or unreadable. *)
let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | "" -> Some ([], 0)
  | text when not (String.starts_with ~prefix:header text) ->
    warn path "is not a %s store; ignoring its contents" schema;
    Some ([], 0)
  | text ->
    let rec go pos acc =
      match String.index_from_opt text pos '\n' with
      | None -> (acc, pos)
      | Some nl -> (
        match decode_record (String.sub text pos (nl - pos)) with
        | Some kv -> go (nl + 1) (kv :: acc)
        | None -> (acc, pos))
    in
    let records, valid = go (String.length header) [] in
    if valid < String.length text then
      warn path "has a torn or corrupt record; keeping the %d before it"
        (List.length records);
    Some (List.rev records, valid)

(* later records win: a healed verdict overrides its resource-out, a
   rewritten cell record its stale predecessor *)
let filled file records =
  let c = make file in
  List.iter
    (function
      | Verdict (k, v) -> Hashtbl.replace c.tbl k v
      | Cell (d, keys) -> Hashtbl.replace c.cells d keys)
    records;
  c

let load path = Option.map (fun (records, _) -> filled None records) (read path)

(* write all of [s] and make it durable; a file that cannot be synced
   (EINVAL) still gets the write *)
let write_durably fd s =
  ignore (Unix.write_substring fd s 0 (String.length s));
  try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ()

(* append [s] to the store's file; after a failed write the cache carries
   on in memory only *)
let append f s =
  match f.fd with
  | None -> ()
  | Some fd -> (
    match write_durably fd s with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      warn f.path "could not be written (%s); verdicts are kept in memory only"
        (Unix.error_message e);
      Unix.close fd;
      f.fd <- None)

let open_file path =
  let records, valid = Option.value (read path) ~default:([], 0) in
  let file =
    match
      let fd =
        Unix.openfile path Unix.[ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644
      in
      (* a record appended behind a torn line would be unreadable: cut the
         file to its valid prefix first *)
      (try Unix.ftruncate fd valid
       with e ->
         Unix.close fd;
         raise e);
      fd
    with
    | fd ->
      let f = { path; file_lock = Mutex.create (); fd = Some fd } in
      if valid = 0 then append f header;
      Some f
    | exception Unix.Unix_error (e, _, _) ->
      warn path "cannot be written (%s); verdicts are kept in memory only"
        (Unix.error_message e);
      None
  in
  filled file records

(* insert [v] at [k] in [tbl], appending [record] on a file; the table
   update rides inside the file lock, so the file and the table agree on
   which of two racing adds of one key came last, and an add that changes
   nothing (a healed sibling's identical verdict) writes nothing *)
let put c tbl k v record =
  match c.file with
  | None -> with_lock c.lock (fun () -> Hashtbl.replace tbl k v)
  | Some f ->
    with_lock f.file_lock (fun () ->
        let changed =
          with_lock c.lock (fun () ->
              let changed = Hashtbl.find_opt tbl k <> Some v in
              Hashtbl.replace tbl k v;
              changed)
        in
        if changed then append f (line_of record))

let add c ~key o = put c c.tbl key o (Verdict (key, o))

let add_cell c ~digest keys = put c c.cells digest keys (Cell (digest, keys))

let close c =
  Option.iter
    (fun f ->
      with_lock f.file_lock (fun () ->
          Option.iter Unix.close f.fd;
          f.fd <- None))
    c.file

(* atomic: a crash (or SIGKILL) mid-save leaves either the previous cache or
   the new one on disk, never a truncated file *)
let save c path =
  let records =
    with_lock c.lock (fun () ->
        Hashtbl.fold
          (fun k v acc -> Verdict (k, v) :: acc)
          c.tbl
          (Hashtbl.fold (fun d keys acc -> Cell (d, keys) :: acc) c.cells []))
  in
  let text = String.concat "" (header :: List.map line_of records) in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  (match write_durably fd text with
   | () -> Unix.close fd
   | exception e ->
     Unix.close fd;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path
