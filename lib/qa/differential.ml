module E = Mc.Engine

type discrepancy_kind =
  | Verdict_split
  | Replay_mismatch
  | Sim_mismatch
  | Roundtrip_mismatch
  | Injected

let kind_name = function
  | Verdict_split -> "verdict-split"
  | Replay_mismatch -> "replay-mismatch"
  | Sim_mismatch -> "sim-mismatch"
  | Roundtrip_mismatch -> "roundtrip-mismatch"
  | Injected -> "injected"

type discrepancy = {
  kind : discrepancy_kind;
  case_id : string;
  prop : string option;
  detail : string;
}

type engine_result = {
  strategy : E.strategy;
  scratch : bool;
  outcome : E.outcome;
  validated_fail : int option;
}

type obligation_report = {
  prop_name : string;
  cls : Verifiable.Propgen.prop_class;
  engines : engine_result list;
  sim_sequences : int;
}

type report = {
  case : Gen.case;
  obligations : obligation_report list;
  roundtrip_ok : bool;
  discrepancies : discrepancy list;
  time_s : float;
}

let strategies =
  [ E.Bdd_forward; E.Bdd_backward; E.Bdd_combined; E.Pobdd; E.Bmc; E.Kind;
    E.Ic3 ]

(* the SAT engines additionally run with [incremental = false], so every
   fuzz case cross-checks the warm persistent-solver path against the
   rebuild-from-scratch oracle through the same verdict-split / replay /
   simulation machinery as any other engine pair *)
let scratch_strategies = [ E.Bmc; E.Kind; E.Ic3 ]

let fuzz_budget =
  {
    E.bdd_node_limit = Some 500_000;
    pobdd_node_limit = Some 1_000_000;
    pobdd_split_vars = 2;
    bmc_depth = 8;
    induction_max_k = 8;
    sat_max_conflicts = 200_000;
    ic3_max_frames = 16;
    wall_deadline_s = Some 10.0;
    incremental = true;
  }

let run_name er =
  let n = E.strategy_name er.strategy in
  if er.scratch then n ^ "[scratch]" else n

(* ---- Verilog print/parse round-trip, compared by canonical fingerprint *)

let roundtrip (m : Rtl.Mdl.t) =
  let fingerprint mdl =
    Rtl.Canon.fingerprint
      (Rtl.Elaborate.run
         (Rtl.Design.of_modules [ mdl ])
         ~top:mdl.Rtl.Mdl.name)
  in
  match Rtl.Vparse.parse (Rtl.Verilog.module_to_string m) with
  | [ parsed ] ->
    let parsed = Rtl.Vparse.annotate_like ~reference:m parsed in
    let a = fingerprint m and b = fingerprint parsed in
    if String.equal a b then Ok ()
    else Error (Printf.sprintf "canonical fingerprint %s <> %s" a b)
  | ms -> Error (Printf.sprintf "parse returned %d modules" (List.length ms))
  | exception e -> Error (Printexc.to_string e)

(* ---- bounded exhaustive simulation on the replay model ---- *)

(* sweep every input sequence of [total_bits / input_bits] cycles, as long
   as that is at most 2^sim_limit_bits sequences; sequence [n] drives bit
   [k] of [n] as the [k]-th input bit of the whole stimulus, cycle by cycle
   and input by input *)
let sim_limit_bits = 10

let exhaustive_sim rnl ~ok_signal ~constraint_signal =
  let inputs = rnl.Rtl.Netlist.inputs in
  let b = List.fold_left (fun a (_, w) -> a + w) 0 inputs in
  if b = 0 || b > sim_limit_bits then None
  else
    Obs.Telemetry.span ~cat:"sim" "sweep" @@ fun () ->
    let depth = max 1 (sim_limit_bits / b) in
    let total = 1 lsl (b * depth) in
    let lanes = Sim.Simulator.lanes in
    let replay = Core.Replay.run_lanes ?constraint_signal rnl ~ok_signal in
    (* one batch runs sequences [base .. base + lanes - 1], sequence
       [base + l] in lane [l] *)
    let batch base =
      let word k =
        let w = ref 0 in
        for l = lanes - 1 downto 0 do
          w := (!w lsl 1) lor (((base + l) lsr k) land 1)
        done;
        !w
      in
      List.init depth (fun c ->
          snd
            (List.fold_left_map
               (fun off (name, w) ->
                 (off + w, (name, Array.init w (fun i -> word (off + i)))))
               (c * b) inputs))
    in
    (* batches in enumeration order; the lowest failing lane of the first
       failing batch is the first failing sequence *)
    let rec sweep base =
      if base >= total then (total, None)
      else
        let fails = replay (batch base) in
        let rec lowest l =
          if l >= lanes || base + l >= total then sweep (base + lanes)
          else
            match fails.(l) with
            | Some c -> (base + l + 1, Some c)
            | None -> lowest (l + 1)
        in
        lowest 0
    in
    let n, first_fail = sweep 0 in
    Obs.Telemetry.count ~n "qa.sim_sequences";
    Some (total, depth, first_fail)

(* ---- verdict agreement ---- *)

type claim = Holds | Bounded of int | Refuted of int | Unknown

let claim_of er =
  match er.outcome.E.verdict with
  | E.Proved -> Holds
  | E.Proved_bounded d -> Bounded d
  | E.Failed _ -> (
    match er.validated_fail with Some l -> Refuted l | None -> Unknown)
  | E.Resource_out _ | E.Error _ -> Unknown

let check_obligation ~case_id mdl ~cls ~prop_name ~assert_ ~assumes
    (nl, ok_signal, constraint_signal) =
  let replay = lazy (E.replay_model mdl ~assert_ ~assumes) in
  (* compiled once, on the first counterexample *)
  let replay_trace =
    lazy
      (let rnl, rok, rcons = Lazy.force replay in
       Core.Replay.run ?constraint_signal:rcons rnl ~ok_signal:rok)
  in
  let discs = ref [] in
  let add kind detail =
    discs := { kind; case_id; prop = Some prop_name; detail } :: !discs
  in
  let runs =
    List.map (fun s -> (s, false)) strategies
    @ List.map (fun s -> (s, true)) scratch_strategies
  in
  let engines =
    List.map
      (fun (strategy, scratch) ->
        Obs.Telemetry.count "qa.engine_runs";
        let name =
          E.strategy_name strategy ^ if scratch then "[scratch]" else ""
        in
        let budget =
          if scratch then { fuzz_budget with E.incremental = false }
          else fuzz_budget
        in
        let outcome =
          E.check_netlist ~budget ?constraint_signal ~strategy nl ~ok_signal
        in
        let validated_fail =
          match outcome.E.verdict with
          | E.Failed trace -> (
            let replay_trace = Lazy.force replay_trace in
            let run = replay_trace (Mc.Trace.replay_stimulus trace) in
            match Core.Replay.validate trace run with
            | Ok () -> Some (Mc.Trace.length trace)
            | Error reason ->
              add Replay_mismatch
                (Printf.sprintf "%s counterexample fails replay validation: %s"
                   name reason);
              None)
          | _ -> None
        in
        { strategy; scratch; outcome; validated_fail })
      runs
  in
  (* a replay-validated refutation contradicts any proof, and any bounded
     proof whose horizon covers the violation cycle *)
  List.iter
    (fun refuter ->
      match claim_of refuter with
      | Refuted l ->
        List.iter
          (fun prover ->
            let split d =
              add Verdict_split
                (Printf.sprintf
                   "%s proves%s but %s has a validated counterexample at \
                    cycle %d"
                   (run_name prover)
                   (match d with
                   | None -> ""
                   | Some d -> Printf.sprintf " up to depth %d" d)
                   (run_name refuter) (l - 1))
            in
            match claim_of prover with
            | Holds -> split None
            | Bounded d when l - 1 <= d -> split (Some d)
            | _ -> ())
          engines
      | _ -> ())
    engines;
  (* exhaustive simulation is a third oracle over the same model *)
  let rnl, rok, rcons = Lazy.force replay in
  let sim = exhaustive_sim rnl ~ok_signal:rok ~constraint_signal:rcons in
  (match sim with
  | None -> ()
  | Some (_, _, Some c) ->
    List.iter
      (fun er ->
        match claim_of er with
        | Holds ->
          add Sim_mismatch
            (Printf.sprintf
               "exhaustive simulation violates at cycle %d but %s proves" c
               (run_name er))
        | Bounded d when c <= d ->
          add Sim_mismatch
            (Printf.sprintf
               "exhaustive simulation violates at cycle %d but %s proves up \
                to depth %d"
               c (run_name er) d)
        | _ -> ())
      engines
  | Some (_, depth, None) ->
    List.iter
      (fun er ->
        match claim_of er with
        | Refuted l when l <= depth ->
          add Sim_mismatch
            (Printf.sprintf
               "%s has a validated counterexample of length %d but \
                exhaustive simulation to depth %d finds none"
               (run_name er) l depth)
        | _ -> ())
      engines);
  let sim_sequences = match sim with None -> 0 | Some (t, _, _) -> t in
  ({ prop_name; cls; engines; sim_sequences }, List.rev !discs)

let check_case ?(inject = false) (case : Gen.case) =
  Obs.Telemetry.span ~cat:"qa" "qa.case" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Obs.Telemetry.count "qa.cases";
  let mdl = case.Gen.info.Verifiable.Transform.mdl in
  let roundtrip_discs =
    match roundtrip mdl with
    | Ok () -> []
    | Error detail ->
      [ { kind = Roundtrip_mismatch; case_id = case.Gen.id; prop = None;
          detail } ]
  in
  (* the design's properties are prepared as one cell, as the campaign
     prepares a module *)
  let props =
    List.concat_map
      (fun (cls, vu) ->
        let assumes = List.map snd (Psl.Ast.assumes vu) in
        List.map
          (fun (name, a) -> (cls, (name, a, assumes)))
          (Psl.Ast.asserts vu))
      (Verifiable.Propgen.all case.Gen.info case.Gen.spec)
  in
  let checked =
    List.map2
      (fun (cls, (prop_name, assert_, assumes)) (_, prep) ->
        Obs.Telemetry.count "qa.obligations";
        check_obligation ~case_id:case.Gen.id mdl ~cls ~prop_name ~assert_
          ~assumes prep)
      props
      (E.prepare_module mdl ~props:(List.map snd props))
  in
  let obligations = List.map fst checked in
  let engine_discs = List.concat_map snd checked in
  let injected =
    if inject then
      [ { kind = Injected; case_id = case.Gen.id; prop = None;
          detail = "synthetic disagreement (test hook)" } ]
    else []
  in
  let discrepancies = roundtrip_discs @ engine_discs @ injected in
  Obs.Telemetry.count ~n:(List.length discrepancies) "qa.discrepancies";
  { case; obligations; roundtrip_ok = roundtrip_discs = [];
    discrepancies; time_s = Unix.gettimeofday () -. t0 }

let discrepant ?(inject = false) params =
  let case = Gen.build ~id:"shrink" params in
  (check_case ~inject case).discrepancies <> []
