module Telemetry = Obs.Telemetry
module Json = Obs.Json

type validation = {
  status : [ `Confirmed | `Not_confirmed of string ];
  fail_cycle : int option;
  minimized_reproduces : bool;
}

type t = {
  category : string;
  module_name : string;
  vunit_name : string;
  prop_name : string;
  cls : Verifiable.Propgen.prop_class;
  bug : Chip.Bugs.id option;
  he_signal : string option;
  original_cycles : int;
  minimized_cycles : int;
  original_care_bits : int;
  minimized_care_bits : int;
  validation : validation;
  cone : Cone.cycle_cone list;
  golden_failed : bool;
  explanation : string;
  minimized_stimulus : (string * Bitvec.t) list list;
}

type artifacts = {
  diag : t;
  minimized_trace : Mc.Trace.t;
  replay_snapshots : Core.Replay.snapshot list;
}

let schema = "dicheck-diag-v1"

let cls_tag = function
  | Verifiable.Propgen.P0 -> "P0"
  | Verifiable.Propgen.P1 -> "P1"
  | Verifiable.Propgen.P2 -> "P2"
  | Verifiable.Propgen.P3 -> "P3"

let cls_of_tag = function
  | "P0" -> Ok Verifiable.Propgen.P0
  | "P1" -> Ok Verifiable.Propgen.P1
  | "P2" -> Ok Verifiable.Propgen.P2
  | "P3" -> Ok Verifiable.Propgen.P3
  | other -> Error (Printf.sprintf "unknown property class %S" other)

let explanation_of ~cls ~he_signal ~bug =
  let he = Option.value he_signal ~default:"HE" in
  let base =
    match cls with
    | Verifiable.Propgen.P0 ->
      Printf.sprintf
        "Error detection fails: an illegal value enters the module (through \
         the error-injection port or an illegal primary input) and the \
         hardware-error report %s stays silent the following cycle — the \
         checker misses the corruption."
        he
    | Verifiable.Propgen.P1 ->
      Printf.sprintf
        "Internal-state soundness fails: with odd-parity inputs and no \
         error injection, the hardware-error report %s fires — the module \
         flags a hardware error that never happened."
        he
    | Verifiable.Propgen.P2 ->
      "Output data integrity fails: with odd-parity inputs and no error \
       injection, an output leaves the odd-parity code space — the module \
       corrupts data without reporting it."
    | Verifiable.Propgen.P3 ->
      "A designer-supplied property is violated on a legal input sequence."
  in
  match bug with
  | None -> base
  | Some b ->
    Printf.sprintf "%s Seeded defect %s: %s" base (Chip.Bugs.name b)
      (Chip.Bugs.describe b)

(* ---- diagnosis ---- *)

let registers_of nl = List.map (fun (r : Rtl.Netlist.flat_reg) -> r.Rtl.Netlist.name) nl.Rtl.Netlist.regs

let trace_of_replay ~registers stimulus (r : Core.Replay.run) : Mc.Trace.t =
  List.mapi
    (fun j cycle_inputs ->
      let snap =
        match List.nth_opt r.Core.Replay.snapshots j with
        | Some s -> s
        | None -> []
      in
      let state =
        List.filter_map
          (fun name ->
            Option.map (fun v -> (name, v)) (List.assoc_opt name snap))
          registers
      in
      { Mc.Trace.step = j; inputs = cycle_inputs; state })
    stimulus

let diagnose ?he_signal (w : Core.Campaign.work) (trace : Mc.Trace.t) =
  let module C = Core.Campaign in
  Telemetry.span ~cat:"diag"
    ~args:[ ("module", w.C.w_mdl.Rtl.Mdl.name); ("property", w.C.w_prop_name) ]
    "diag.obligation"
    (fun () ->
      let nl, ok_signal, constraint_signal =
        Mc.Engine.replay_model w.C.w_mdl ~assert_:w.C.w_assert
          ~assumes:w.C.w_assumes
      in
      let he_signal =
        match he_signal with
        | Some h when List.mem_assoc h (Rtl.Netlist.signals nl) -> Some h
        | _ -> None
      in
      let stimulus0 = Mc.Trace.replay_stimulus trace in
      let r0 =
        Telemetry.span ~cat:"diag" "diag.replay" (fun () ->
            Core.Replay.run ?constraint_signal nl ~ok_signal stimulus0)
      in
      let validated = Core.Replay.validate trace r0 in
      let status, min_stim, rmin, _stats =
        match validated with
        | Error reason ->
          Telemetry.count "diag.not_confirmed";
          ( `Not_confirmed reason, stimulus0, r0,
            { Minimize.replays = 0; cycles_removed = 0; bits_cleared = 0 } )
        | Ok () ->
          Telemetry.count "diag.confirmed";
          let fail_cycle = Option.get r0.Core.Replay.fail_cycle in
          let truncated =
            Minimize.truncate_to_first_failure ~fail_cycle stimulus0
          in
          let oracle s =
            Core.Replay.fails
              (Core.Replay.run ~capture:false ?constraint_signal nl ~ok_signal
                 s)
          in
          let min_stim, stats =
            Telemetry.span ~cat:"diag" "diag.minimize" (fun () ->
                Minimize.minimize ~oracle truncated)
          in
          Telemetry.count ~n:stats.Minimize.cycles_removed
            "diag.cycles_removed";
          Telemetry.count ~n:stats.Minimize.bits_cleared "diag.bits_cleared";
          let rmin =
            Core.Replay.run ?constraint_signal nl ~ok_signal min_stim
          in
          (`Confirmed, min_stim, rmin, stats)
      in
      let cone_result =
        if Core.Replay.fails rmin then
          Cone.analyze ?constraint_signal nl ~ok_signal ~failing:rmin min_stim
        else { Cone.cones = []; golden_failed = false; golden_stimulus = [] }
      in
      let diag =
        { category = w.C.w_category;
          module_name = w.C.w_mdl.Rtl.Mdl.name;
          vunit_name = w.C.w_vunit_name;
          prop_name = w.C.w_prop_name;
          cls = w.C.w_cls;
          bug = w.C.w_bug;
          he_signal;
          original_cycles = List.length stimulus0;
          minimized_cycles = List.length min_stim;
          original_care_bits = Minimize.care_bits stimulus0;
          minimized_care_bits = Minimize.care_bits min_stim;
          validation =
            { status;
              fail_cycle = r0.Core.Replay.fail_cycle;
              minimized_reproduces = Core.Replay.fails rmin };
          cone = cone_result.Cone.cones;
          golden_failed = cone_result.Cone.golden_failed;
          explanation =
            explanation_of ~cls:w.C.w_cls ~he_signal ~bug:w.C.w_bug;
          minimized_stimulus = min_stim }
      in
      { diag;
        minimized_trace =
          trace_of_replay ~registers:(registers_of nl) min_stim rmin;
        replay_snapshots = rmin.Core.Replay.snapshots })

let to_vcd a = Mc.Trace.to_vcd ~replay:a.replay_snapshots a.minimized_trace

(* ---- JSON ---- *)

let to_json d =
  let opt_string = function None -> Json.Null | Some s -> Json.String s in
  Json.Obj
    [ ("schema", Json.String schema);
      ( "obligation",
        Json.Obj
          [ ("category", Json.String d.category);
            ("module", Json.String d.module_name);
            ("vunit", Json.String d.vunit_name);
            ("property", Json.String d.prop_name);
            ("class", Json.String (cls_tag d.cls));
            ("bug", opt_string (Option.map Chip.Bugs.name d.bug)) ] );
      ("verdict", Json.String "falsified");
      ( "trace",
        Json.Obj
          [ ("original_cycles", Json.Int d.original_cycles);
            ("minimized_cycles", Json.Int d.minimized_cycles);
            ("original_care_bits", Json.Int d.original_care_bits);
            ("minimized_care_bits", Json.Int d.minimized_care_bits) ] );
      ( "validation",
        Json.Obj
          [ ( "status",
              Json.String
                (match d.validation.status with
                 | `Confirmed -> "confirmed"
                 | `Not_confirmed _ -> "not-confirmed") );
            ( "reason",
              match d.validation.status with
              | `Confirmed -> Json.Null
              | `Not_confirmed r -> Json.String r );
            ( "fail_cycle",
              match d.validation.fail_cycle with
              | None -> Json.Null
              | Some c -> Json.Int c );
            ( "minimized_reproduces",
              Json.Bool d.validation.minimized_reproduces ) ] );
      ("he_signal", opt_string d.he_signal);
      ("golden_failed", Json.Bool d.golden_failed);
      ( "cone",
        Json.List
          (List.map
             (fun (c : Cone.cycle_cone) ->
               Json.Obj
                 [ ("cycle", Json.Int c.Cone.cone_step);
                   ( "corrupted",
                     Json.List
                       (List.map (fun s -> Json.String s) c.Cone.corrupted) )
                 ])
             d.cone) );
      ("explanation", Json.String d.explanation);
      ( "minimized_stimulus",
        Json.List (List.map Mc.Trace.bindings_to_json d.minimized_stimulus) )
    ]

let ( let* ) = Result.bind

let bug_of_name name =
  match
    List.find_opt (fun b -> Chip.Bugs.name b = name) Chip.Bugs.all
  with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "unknown bug id %S" name)

let of_json j =
  let* s = Json.as_str "schema" j in
  if s <> schema then
    Error (Printf.sprintf "expected schema %S, got %S" schema s)
  else
    let* ob = Json.field "obligation" j in
    let* category = Json.as_str "category" ob in
    let* module_name = Json.as_str "module" ob in
    let* vunit_name = Json.as_str "vunit" ob in
    let* prop_name = Json.as_str "property" ob in
    let* cls_s = Json.as_str "class" ob in
    let* cls = cls_of_tag cls_s in
    let* bug_s = Json.as_opt_str "bug" ob in
    let* bug =
      match bug_s with
      | None -> Ok None
      | Some n ->
        let* b = bug_of_name n in
        Ok (Some b)
    in
    let* tr = Json.field "trace" j in
    let* original_cycles = Json.as_int "original_cycles" tr in
    let* minimized_cycles = Json.as_int "minimized_cycles" tr in
    let* original_care_bits = Json.as_int "original_care_bits" tr in
    let* minimized_care_bits = Json.as_int "minimized_care_bits" tr in
    let* va = Json.field "validation" j in
    let* status_s = Json.as_str "status" va in
    let* reason = Json.as_opt_str "reason" va in
    let* status =
      match (status_s, reason) with
      | "confirmed", _ -> Ok `Confirmed
      | "not-confirmed", Some r -> Ok (`Not_confirmed r)
      | "not-confirmed", None -> Ok (`Not_confirmed "unspecified")
      | other, _ -> Error (Printf.sprintf "unknown validation status %S" other)
    in
    let* fail_cycle = Json.as_opt_int "fail_cycle" va in
    let* minimized_reproduces = Json.as_bool "minimized_reproduces" va in
    let* he_signal = Json.as_opt_str "he_signal" j in
    let* golden_failed = Json.as_bool "golden_failed" j in
    let* cone_l = Json.as_list "cone" j in
    let* cone =
      Json.map_result
        (fun c ->
          let* cycle = Json.as_int "cycle" c in
          let* corrupted = Json.as_str_list "corrupted" c in
          Ok { Cone.cone_step = cycle; corrupted })
        cone_l
    in
    let* explanation = Json.as_str "explanation" j in
    let* stimulus = Json.as_list "minimized_stimulus" j in
    let* minimized_stimulus =
      Json.map_result Mc.Trace.bindings_of_json stimulus
    in
    Ok
      { category; module_name; vunit_name; prop_name; cls; bug; he_signal;
        original_cycles; minimized_cycles; original_care_bits;
        minimized_care_bits;
        validation = { status; fail_cycle; minimized_reproduces };
        cone; golden_failed; explanation; minimized_stimulus }

(* ---- campaign-level diagnosis ---- *)

type diagnosed = {
  result : Core.Campaign.prop_result;
  artifacts : artifacts;
}

let he_signal_of (chip : Chip.Generator.t) (w : Core.Campaign.work) =
  let target = w.Core.Campaign.w_mdl.Rtl.Mdl.name in
  List.find_map
    (fun (c : Chip.Generator.category) ->
      List.find_map
        (fun (u : Chip.Generator.unit_) ->
          if u.Chip.Generator.info.Verifiable.Transform.mdl.Rtl.Mdl.name
             = target
          then Some u.Chip.Generator.spec.Verifiable.Propgen.he
          else None)
        c.Chip.Generator.units)
    chip.Chip.Generator.categories

let failed_work chip (c : Core.Campaign.t) =
  let works = Core.Campaign.work_items chip in
  let results = c.Core.Campaign.results in
  if List.length works <> List.length results then
    invalid_arg
      "Diagnosis.failed_work: campaign results do not match the chip's work \
       items";
  List.filter_map
    (fun (w, (r : Core.Campaign.prop_result)) ->
      match r.Core.Campaign.outcome.Mc.Engine.verdict with
      | Mc.Engine.Failed trace -> Some (w, r, trace)
      | _ -> None)
    (List.combine works results)

(* crash fallback: keep the obligation's identity but mark it unconfirmed,
   so one poisoned diagnosis cannot lose the rest of the report *)
let crashed_artifacts (w : Core.Campaign.work) (trace : Mc.Trace.t) reason =
  let module C = Core.Campaign in
  let stimulus = Mc.Trace.replay_stimulus trace in
  { diag =
      { category = w.C.w_category;
        module_name = w.C.w_mdl.Rtl.Mdl.name;
        vunit_name = w.C.w_vunit_name;
        prop_name = w.C.w_prop_name;
        cls = w.C.w_cls;
        bug = w.C.w_bug;
        he_signal = None;
        original_cycles = List.length stimulus;
        minimized_cycles = List.length stimulus;
        original_care_bits = Minimize.care_bits stimulus;
        minimized_care_bits = Minimize.care_bits stimulus;
        validation =
          { status = `Not_confirmed reason; fail_cycle = None;
            minimized_reproduces = false };
        cone = [];
        golden_failed = false;
        explanation = explanation_of ~cls:w.C.w_cls ~he_signal:None ~bug:w.C.w_bug;
        minimized_stimulus = stimulus };
    minimized_trace = trace;
    replay_snapshots = [] }

let diagnose_campaign ?jobs chip (c : Core.Campaign.t) =
  let failed = Array.of_list (failed_work chip c) in
  let exec = Core.Executor.of_jobs jobs in
  let outs =
    Core.Executor.map_result exec
      (fun (w, r, trace) ->
        (r, diagnose ?he_signal:(he_signal_of chip w) w trace))
      failed
  in
  Array.to_list outs
  |> List.mapi (fun i out ->
         match out with
         | Ok (r, artifacts) -> { result = r; artifacts }
         | Error e ->
           let w, r, trace = failed.(i) in
           { result = r;
             artifacts =
               crashed_artifacts w trace
                 ("diagnosis crashed: " ^ Printexc.to_string e) })
