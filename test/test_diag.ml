(* Counterexample diagnosis: simulator cross-validation, delta-debug
   minimization, fault-cone analysis, JSON round-trip and the campaign-level
   drill-down artifacts. *)

module G = Chip.Generator
module C = Core.Campaign
module D = Diag.Diagnosis

let chip = lazy (G.generate ())

(* every seeded-bug unit of every category: exercises diagnosis across all
   property classes (P0 via C, P1/P2 via A/D/E) at a fraction of the full
   2047-obligation campaign *)
let bug_chip () =
  let t = Lazy.force chip in
  let categories =
    List.filter_map
      (fun (c : G.category) ->
        let specials =
          List.filter
            (fun (u : G.unit_) -> u.G.leaf.Chip.Archetype.bug <> None)
            c.G.units
        in
        if specials = [] then None
        else
          Some
            { c with
              G.units = specials;
              G.expected =
                { c.G.expected with G.sub = List.length specials } })
      t.G.categories
  in
  { t with G.categories }

let diagnosed = lazy (
  let mini = bug_chip () in
  let result = C.run mini in
  (mini, result, D.diagnose_campaign mini result))

(* ---- vcd identifier hardening ---- *)

let test_vcd_id_unique () =
  let seen = Hashtbl.create 997 in
  for i = 0 to 500 do
    let id = Mc.Trace.vcd_id i in
    Alcotest.(check bool)
      (Printf.sprintf "id %d printable" i)
      true
      (String.for_all (fun c -> Char.code c >= 33 && Char.code c <= 126) id);
    (match Hashtbl.find_opt seen id with
     | Some j -> Alcotest.failf "vcd_id collision: %d and %d -> %s" j i id
     | None -> Hashtbl.add seen id i);
    Alcotest.(check string)
      (Printf.sprintf "Sim.Vcd agrees at %d" i)
      id (Sim.Vcd.id_of_index i)
  done;
  Alcotest.(check string) "index 0" "!" (Mc.Trace.vcd_id 0);
  Alcotest.(check string) "index 93" "~" (Mc.Trace.vcd_id 93);
  Alcotest.(check string) "index 94 rolls to two chars" "!!"
    (Mc.Trace.vcd_id 94);
  Alcotest.(check bool) "negative index rejected" true
    (match Mc.Trace.vcd_id (-1) with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---- minimization against a synthetic oracle ---- *)

let test_minimize_synthetic () =
  let bv n v = Bitvec.of_int ~width:n v in
  (* fails iff some cycle drives x with bit 0 set *)
  let oracle stim =
    List.exists
      (fun cycle ->
        match List.assoc_opt "x" cycle with
        | Some v -> Bitvec.get v 0
        | None -> false)
      stim
  in
  let noise j = [ ("x", bv 4 (if j = 5 then 0xF else 0xE)); ("y", bv 8 j) ] in
  let stimulus = List.init 8 noise in
  Alcotest.(check bool) "original fails" true (oracle stimulus);
  let min_stim, stats = Diag.Minimize.minimize ~oracle stimulus in
  Alcotest.(check bool) "minimized still fails" true (oracle min_stim);
  Alcotest.(check int) "one cycle survives" 1 (List.length min_stim);
  Alcotest.(check int) "one care bit survives" 1
    (Diag.Minimize.care_bits min_stim);
  Alcotest.(check int) "seven cycles removed" 7 stats.Diag.Minimize.cycles_removed

(* ---- campaign-level diagnosis ---- *)

let test_all_failures_confirmed () =
  let mini, result, ds = Lazy.force diagnosed in
  let failed = C.failed_results result in
  Alcotest.(check bool) "bug chip produces failures" true (failed <> []);
  Alcotest.(check int) "one diagnosis per falsified obligation"
    (List.length failed) (List.length ds);
  ignore mini;
  List.iter
    (fun (d : D.diagnosed) ->
      let dg = d.D.artifacts.D.diag in
      let name = dg.D.module_name ^ "." ^ dg.D.prop_name in
      (match dg.D.validation.D.status with
       | `Confirmed -> ()
       | `Not_confirmed reason ->
         Alcotest.failf "%s not confirmed by replay: %s" name reason);
      Alcotest.(check bool) (name ^ " minimized reproduces") true
        dg.D.validation.D.minimized_reproduces;
      Alcotest.(check bool) (name ^ " minimization never grows") true
        (dg.D.minimized_cycles <= dg.D.original_cycles
        && dg.D.minimized_care_bits <= dg.D.original_care_bits);
      Alcotest.(check bool) (name ^ " fail cycle recorded") true
        (dg.D.validation.D.fail_cycle <> None);
      (* a confirmed failing replay always yields a per-cycle cone *)
      Alcotest.(check int) (name ^ " cone covers the minimized trace")
        dg.D.minimized_cycles
        (List.length dg.D.cone))
    ds

let test_json_roundtrip () =
  let _, _, ds = Lazy.force diagnosed in
  List.iter
    (fun (d : D.diagnosed) ->
      let dg = d.D.artifacts.D.diag in
      let s = Obs.Json.to_string (D.to_json dg) in
      match Obs.Json.parse s with
      | Error m -> Alcotest.failf "diag JSON does not parse: %s" m
      | Ok j ->
        (match D.of_json j with
         | Error m -> Alcotest.failf "diag JSON does not decode: %s" m
         | Ok dg' ->
           Alcotest.(check string)
             (dg.D.module_name ^ "." ^ dg.D.prop_name ^ " round-trips")
             s
             (Obs.Json.to_string (D.to_json dg'))))
    ds

let test_schema_fields () =
  let _, _, ds = Lazy.force diagnosed in
  let d = List.hd ds in
  let j = D.to_json d.D.artifacts.D.diag in
  let str name =
    Option.bind (Obs.Json.member name j) Obs.Json.to_str
  in
  Alcotest.(check (option string)) "schema tag" (Some "dicheck-diag-v1")
    (str "schema");
  Alcotest.(check (option string)) "verdict" (Some "falsified") (str "verdict");
  List.iter
    (fun f ->
      Alcotest.(check bool) ("field " ^ f) true
        (Obs.Json.member f j <> None))
    [ "obligation"; "trace"; "validation"; "cone"; "explanation";
      "minimized_stimulus"; "golden_failed"; "he_signal" ]

let test_pool_matches_sequential () =
  let mini, result, _ = Lazy.force diagnosed in
  let render ds =
    List.map
      (fun (d : D.diagnosed) -> Obs.Json.to_string (D.to_json d.D.artifacts.D.diag))
      ds
  in
  let seq = render (D.diagnose_campaign ~jobs:1 mini result) in
  let par = render (D.diagnose_campaign ~jobs:4 mini result) in
  Alcotest.(check (list string)) "diagnosis is schedule-independent" seq par

let test_annotated_vcd () =
  let _, _, ds = Lazy.force diagnosed in
  List.iter
    (fun (d : D.diagnosed) ->
      let dg = d.D.artifacts.D.diag in
      let name = dg.D.module_name ^ "." ^ dg.D.prop_name in
      let vcd = D.to_vcd d.D.artifacts in
      Alcotest.(check bool) (name ^ " vcd non-empty") true
        (String.length vcd > 0);
      let contains needle =
        let n = String.length needle and h = String.length vcd in
        let rec go i = i + n <= h && (String.sub vcd i n = needle || go (i + 1)) in
        go 0
      in
      (* the replayed monitor verdict net must be dumped — it is exactly what
         the engine model proves about, and COI kept it out of the trace *)
      Alcotest.(check bool) (name ^ " dumps the monitor net") true
        (contains "mon_ok");
      (match dg.D.he_signal with
       | Some he ->
         Alcotest.(check bool) (name ^ " dumps the HE report bus") true
           (contains (" " ^ he ^ " $end"))
       | None -> ());
      (* one timestep per minimized cycle *)
      let timesteps =
        String.split_on_char '\n' vcd
        |> List.filter (fun l -> String.length l > 1 && l.[0] = '#')
      in
      Alcotest.(check int) (name ^ " one timestep per cycle")
        dg.D.minimized_cycles (List.length timesteps))
    ds

let test_html_report () =
  let _, _, ds = Lazy.force diagnosed in
  let entries =
    List.map
      (fun (d : D.diagnosed) ->
        { Diag.Report_html.diag = d.D.artifacts.D.diag; vcd = None })
      ds
  in
  let html = Diag.Report_html.render entries in
  Alcotest.(check bool) "html non-empty" true (String.length html > 1000);
  let count needle =
    let n = String.length needle and h = String.length html in
    let rec go i acc =
      if i + n > h then acc
      else if String.sub html i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one summary row per failure" (List.length ds)
    (count "failure-row");
  (* adversarial content must come out escaped *)
  let evil =
    { (List.hd ds).D.artifacts.D.diag with
      D.explanation = "<script>alert(1)</script>" }
  in
  let html' =
    Diag.Report_html.render [ { Diag.Report_html.diag = evil; vcd = None } ]
  in
  let contains s needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "script tag escaped" false
    (contains html' "<script>")

let test_replay_telemetry () =
  let mini, result, _ = Lazy.force diagnosed in
  Obs.Telemetry.start ();
  let _ = D.diagnose_campaign mini result in
  let report = Obs.Telemetry.stop () in
  Alcotest.(check bool) "replays counted" true
    (Obs.Telemetry.counter report "diag.replays" > 0);
  Alcotest.(check bool) "confirmations counted" true
    (Obs.Telemetry.counter report "diag.confirmed" > 0);
  Alcotest.(check bool) "obligation spans recorded" true
    (List.exists
       (fun (s : Obs.Telemetry.span) ->
         s.Obs.Telemetry.cat = "diag"
         && s.Obs.Telemetry.name = "diag.obligation")
       report.Obs.Telemetry.spans)

let test_json_to_bool () =
  Alcotest.(check (option bool)) "bool true" (Some true)
    (Obs.Json.to_bool (Obs.Json.Bool true));
  Alcotest.(check (option bool)) "int is not bool" None
    (Obs.Json.to_bool (Obs.Json.Int 1))

let () =
  Alcotest.run "diag"
    [ ("vcd",
       [ Alcotest.test_case "identifier codes stay unique past 94" `Quick
           test_vcd_id_unique ]);
      ("minimize",
       [ Alcotest.test_case "delta-debug against synthetic oracle" `Quick
           test_minimize_synthetic ]);
      ("campaign",
       [ Alcotest.test_case "every falsified obligation confirmed" `Slow
           test_all_failures_confirmed;
         Alcotest.test_case "diag JSON round-trips" `Slow test_json_roundtrip;
         Alcotest.test_case "schema fields present" `Slow test_schema_fields;
         Alcotest.test_case "pool matches sequential" `Slow
           test_pool_matches_sequential;
         Alcotest.test_case "annotated vcd" `Slow test_annotated_vcd;
         Alcotest.test_case "html report" `Slow test_html_report;
         Alcotest.test_case "telemetry spans and counters" `Slow
           test_replay_telemetry ]);
      ("json",
       [ Alcotest.test_case "to_bool" `Quick test_json_to_bool ]) ]
