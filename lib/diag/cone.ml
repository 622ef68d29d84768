type cycle_cone = {
  cone_step : int;
  corrupted : string list;
}

type t = {
  cones : cycle_cone list;
  golden_failed : bool;
  golden_stimulus : (string * Bitvec.t) list list;
}

(* The input-invariant constraint is a combinational function of the primary
   inputs alone (that is what qualified it for engine-level lowering), so one
   settled evaluation per candidate cycle decides legality. *)
let make_legality_check ?constraint_signal nl =
  match constraint_signal with
  | None -> fun _ -> true
  | Some c ->
    let sim = Sim.Simulator.create nl in
    Sim.Simulator.reset sim;
    fun cycle_inputs ->
      List.iter
        (fun (name, w) ->
          let v =
            match List.assoc_opt name cycle_inputs with
            | Some v -> v
            | None -> Bitvec.zero w
          in
          Sim.Simulator.drive sim name v)
        nl.Rtl.Netlist.inputs;
      Sim.Simulator.settle sim;
      Sim.Simulator.peek_bit sim c

(* Neutral candidates for an input word, most neutral first: all-zero, then
   the lowest one-hot values (zero has even parity, so parity-protected
   inputs need a single set bit to stay legal). *)
let neutral_candidates v =
  let w = Bitvec.width v in
  Bitvec.zero w :: List.init w (fun k -> Bitvec.set (Bitvec.zero w) k true)

let neutralize_cycle legal cycle =
  List.fold_left
    (fun acc (name, v) ->
      let with_value v' =
        List.map (fun (n, x) -> if n = name then (n, v') else (n, x)) acc
      in
      let rec try_candidates = function
        | [] -> acc
        | v' :: rest ->
          if Bitvec.equal v' v then acc  (* already neutral *)
          else
            let candidate = with_value v' in
            if legal candidate then candidate else try_candidates rest
      in
      try_candidates (neutral_candidates v))
    cycle cycle

let diff_cycle ~input_names failing golden =
  List.filter_map
    (fun (name, v) ->
      if List.mem name input_names then None
      else
        match List.assoc_opt name golden with
        | Some v' when not (Bitvec.equal v v') -> Some name
        | _ -> None)
    failing
  |> List.sort String.compare

let analyze ?constraint_signal nl ~ok_signal ~failing stimulus =
  Obs.Telemetry.span ~cat:"diag" "diag.cone" (fun () ->
      let legal = make_legality_check ?constraint_signal nl in
      let golden_stimulus = List.map (neutralize_cycle legal) stimulus in
      let golden =
        Core.Replay.run ?constraint_signal nl ~ok_signal golden_stimulus
      in
      let input_names = List.map fst nl.Rtl.Netlist.inputs in
      let cones =
        List.mapi
          (fun j fail_snap ->
            let golden_snap =
              match List.nth_opt golden.Core.Replay.snapshots j with
              | Some s -> s
              | None -> []
            in
            { cone_step = j;
              corrupted = diff_cycle ~input_names fail_snap golden_snap })
          failing.Core.Replay.snapshots
      in
      { cones; golden_failed = Core.Replay.fails golden; golden_stimulus })
