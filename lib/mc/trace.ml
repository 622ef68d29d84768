type cycle = {
  step : int;
  inputs : (string * Bitvec.t) list;
  state : (string * Bitvec.t) list;
}

type t = cycle list

let length = List.length

let pp_binding ppf (name, v) =
  Format.fprintf ppf "%s=%a" name Bitvec.pp v

let pp ppf t =
  List.iter
    (fun c ->
      Format.fprintf ppf "cycle %d:@." c.step;
      Format.fprintf ppf "  inputs: %a@."
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_binding)
        c.inputs;
      Format.fprintf ppf "  state:  %a@."
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_binding)
        c.state)
    t

let to_string t = Format.asprintf "%a" pp t

let replay_stimulus t = List.map (fun c -> c.inputs) t

(* ---- JSON ---- *)

module J = Obs.Json

let ( let* ) = Result.bind

let bindings_to_json bs =
  J.List
    (List.map
       (fun (name, v) ->
         J.Obj
           [ ("signal", J.String name);
             ("value", J.String (Bitvec.to_string v)) ])
       bs)

let bindings_of_json j =
  match J.to_list j with
  | None -> Error "signal bindings are not a list"
  | Some bs ->
    J.map_result
      (fun b ->
        let* name = J.as_str "signal" b in
        let* value = J.as_str "value" b in
        match Bitvec.of_string value with
        | v -> Ok (name, v)
        | exception Invalid_argument _ ->
          Error (Printf.sprintf "bad bitvector literal %S" value))
      bs

let to_json t =
  J.List
    (List.map
       (fun c ->
         J.Obj
           [ ("step", J.Int c.step);
             ("inputs", bindings_to_json c.inputs);
             ("state", bindings_to_json c.state) ])
       t)

let of_json j =
  match J.to_list j with
  | None -> Error "trace is not a list"
  | Some cycles ->
    J.map_result
      (fun c ->
        let* step = J.as_int "step" c in
        let* inputs = J.decode "inputs" bindings_of_json c in
        let* state = J.decode "state" bindings_of_json c in
        Ok { step; inputs; state })
      cycles

(* Bijective base-94 identifier codes over printable ASCII 33..126:
   0..93 -> "!".."~", 94 -> "!!", 8929 -> "~~", 8930 -> "!!!", … Injective
   for any index (the test suite checks thousands of ids), so dumps with
   more than 94 signals — which annotated replays routinely produce — never
   alias two signals onto one identifier. *)
let vcd_id i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  if i < 0 then invalid_arg "Trace.vcd_id: negative index" else go i ""

(* The dumped signal set: the trace's own inputs+state first, then any
   replay-only signals (outputs, internal wires, monitor nets) in snapshot
   order. Replayed values for signals the trace already carries are dropped —
   the trace is the engine's ground truth and replay validation checks the
   two agree. *)
let vcd_signals t replay =
  let trace_bindings =
    match t with [] -> [] | c :: _ -> c.inputs @ c.state
  in
  let seen = Hashtbl.create 97 in
  let add acc (name, v) =
    if Hashtbl.mem seen name then acc
    else begin
      Hashtbl.add seen name ();
      (name, Bitvec.width v) :: acc
    end
  in
  let acc = List.fold_left add [] trace_bindings in
  let acc =
    match replay with
    | [] -> acc
    | snapshot :: _ -> List.fold_left add acc snapshot
  in
  List.mapi (fun i (name, w) -> (name, w, vcd_id i)) (List.rev acc)

let to_vcd ?(replay = []) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "$date formal counterexample $end\n";
  Buffer.add_string buf "$version repro data-integrity model checker $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n$scope module trace $end\n";
  let signals = vcd_signals t replay in
  List.iter
    (fun (name, w, id) ->
      let safe = String.map (fun ch -> if ch = '.' then '_' else ch) name in
      Buffer.add_string buf (Printf.sprintf "$var wire %d %s %s $end\n" w id safe))
    signals;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let replay = Array.of_list replay in
  List.iteri
    (fun j c ->
      Buffer.add_string buf (Printf.sprintf "#%d\n" c.step);
      let bindings =
        c.inputs @ c.state
        @ (if j < Array.length replay then replay.(j) else [])
      in
      List.iter
        (fun (name, w, id) ->
          match List.assoc_opt name bindings with
          | None -> ()  (* unchanged this cycle; VCD carries the old value *)
          | Some v ->
            if w = 1 then
              Buffer.add_string buf
                (Printf.sprintf "%d%s\n" (if Bitvec.get v 0 then 1 else 0) id)
            else
              Buffer.add_string buf
                (Printf.sprintf "b%s %s\n" (Bitvec.to_string v) id))
        signals)
    t;
  Buffer.contents buf

let write_vcd ?replay t path =
  let oc = open_out path in
  (try output_string oc (to_vcd ?replay t)
   with e ->
     close_out oc;
     raise e);
  close_out oc
