module E = Mc.Engine
module B = Chip.Bugs

type kill = {
  bug : B.id;
  cls : Verifiable.Propgen.prop_class;
  detected : bool;
  witness : string option;
  detail : string option;
  time_s : float;
}

type report = {
  case_id : string;
  params : Gen.params;
  kills : kill list;
}

let killed r =
  let d = List.length (List.filter (fun k -> k.detected) r.kills) in
  (d, List.length r.kills)

let verdict_summary outcome =
  match outcome.E.verdict with
  | E.Proved -> "proved"
  | E.Proved_bounded d -> Printf.sprintf "proved up to depth %d" d
  | E.Failed _ -> "failed (replay validation rejected the counterexample)"
  | E.Resource_out c -> Printf.sprintf "resource-out (%s)" c
  | E.Error m -> Printf.sprintf "error (%s)" m

(* a kill must be a replay-validated counterexample: a Failed verdict whose
   stimulus does not actually violate the property is itself an engine bug,
   not a detection *)
let attack_property mdl ~assert_ ~assumes =
  let nl, ok_signal, constraint_signal =
    E.instrumented_netlist mdl ~assert_ ~assumes
  in
  let outcome =
    E.check_netlist ~budget:Differential.fuzz_budget ?constraint_signal
      ~strategy:E.Auto nl ~ok_signal
  in
  match outcome.E.verdict with
  | E.Failed trace -> (
    let rnl, rok, rcons = E.replay_model mdl ~assert_ ~assumes in
    let run =
      Core.Replay.run ?constraint_signal:rcons rnl ~ok_signal:rok
        (Mc.Trace.replay_stimulus trace)
    in
    match Core.Replay.validate trace run with
    | Ok () -> Ok (Mc.Trace.length trace)
    | Error reason ->
      Error (Printf.sprintf "failed, but replay validation rejects: %s" reason))
  | _ -> Error (verdict_summary outcome)

let attack_mutant ~id params bug =
  Obs.Telemetry.span ~cat:"qa" "qa.mutant" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Obs.Telemetry.count "qa.mutants";
  let cls = B.property_class bug in
  let mutant = Gen.with_mutation params bug in
  let case = Gen.build ~id:(Printf.sprintf "%s_%s" id (B.name bug)) mutant in
  let mdl = case.Gen.info.Verifiable.Transform.mdl in
  let props =
    Verifiable.Propgen.all case.Gen.info case.Gen.spec
    |> List.filter (fun (c, _) -> c = cls)
    |> List.concat_map (fun (_, vu) ->
           let assumes = List.map snd (Psl.Ast.assumes vu) in
           List.map (fun (n, a) -> (n, a, assumes)) (Psl.Ast.asserts vu))
  in
  let rec attack misses = function
    | [] ->
      let detail =
        if misses = [] then "no property of the expected class was generated"
        else
          String.concat "; "
            (List.rev_map (fun (n, why) -> n ^ ": " ^ why) misses)
      in
      (false, None, Some detail)
    | (name, assert_, assumes) :: rest -> (
      match attack_property mdl ~assert_ ~assumes with
      | Ok len ->
        Obs.Telemetry.count "qa.kills";
        (true, Some (Printf.sprintf "%s (counterexample length %d)" name len),
         None)
      | Error why -> attack ((name, why) :: misses) rest)
  in
  let detected, witness, detail = attack [] props in
  { bug; cls; detected; witness; detail;
    time_s = Unix.gettimeofday () -. t0 }

let run_case params ~id =
  let kills = List.map (attack_mutant ~id params) (Gen.mutations params) in
  { case_id = id; params; kills }
