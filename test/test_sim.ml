(* Simulator: cycle semantics, reset behavior, stimulus profiles, testbench
   watching, VCD output; cross-checked against a hand-computed model. *)

module E = Rtl.Expr
module M = Rtl.Mdl

let bv = Bitvec.of_string

(* 4-bit accumulator: acc' = acc + IN when EN *)
let accumulator () =
  let m = M.create "acc" in
  let m = M.add_input m "EN" 1 in
  let m = M.add_input m "IN" 4 in
  let m = M.add_output m "OUT" 4 in
  let m =
    M.add_reg m "acc_q" 4
      (E.mux (E.var "EN") E.(var "acc_q" +: var "IN") (E.var "acc_q"))
  in
  M.add_assign m "OUT" (E.var "acc_q")

let elaborated m = Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:m.M.name

let test_cycle_semantics () =
  let sim = Sim.Simulator.create (elaborated (accumulator ())) in
  Sim.Simulator.reset sim;
  Alcotest.(check int) "reset value" 0 (Bitvec.to_int (Sim.Simulator.peek sim "acc_q"));
  Sim.Simulator.cycle sim [ ("EN", bv "1"); ("IN", bv "0011") ];
  Alcotest.(check int) "after one add" 3
    (Bitvec.to_int (Sim.Simulator.peek sim "OUT"));
  Sim.Simulator.cycle sim [ ("EN", bv "0"); ("IN", bv "0111") ];
  Alcotest.(check int) "disabled holds" 3
    (Bitvec.to_int (Sim.Simulator.peek sim "OUT"));
  Sim.Simulator.cycle sim [ ("EN", bv "1"); ("IN", bv "1111") ];
  Alcotest.(check int) "wraps" 2 (Bitvec.to_int (Sim.Simulator.peek sim "OUT"));
  Alcotest.(check int) "cycle count" 3 (Sim.Simulator.cycle_count sim);
  Sim.Simulator.reset sim;
  Alcotest.(check int) "reset clears" 0
    (Bitvec.to_int (Sim.Simulator.peek sim "OUT"));
  Alcotest.(check int) "reset clears cycles" 0 (Sim.Simulator.cycle_count sim)

let test_settle_before_clock () =
  let sim = Sim.Simulator.create (elaborated (accumulator ())) in
  Sim.Simulator.reset sim;
  Sim.Simulator.drive_all sim [ ("EN", bv "1"); ("IN", bv "0101") ];
  Sim.Simulator.settle sim;
  (* combinational OUT still shows the pre-edge register value *)
  Alcotest.(check int) "pre-edge" 0 (Bitvec.to_int (Sim.Simulator.peek sim "OUT"));
  Sim.Simulator.clock sim;
  Alcotest.(check int) "post-edge" 5 (Bitvec.to_int (Sim.Simulator.peek sim "OUT"))

let test_drive_errors () =
  let sim = Sim.Simulator.create (elaborated (accumulator ())) in
  Alcotest.(check bool) "unknown input" true
    (match Sim.Simulator.drive sim "NOPE" (bv "1") with
     | () -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "width mismatch" true
    (match Sim.Simulator.drive sim "IN" (bv "1") with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_sim_matches_reference () =
  (* run 100 random cycles, comparing against a direct OCaml model *)
  let sim = Sim.Simulator.create (elaborated (accumulator ())) in
  Sim.Simulator.reset sim;
  let st = Random.State.make [| 7 |] in
  let model = ref 0 in
  for _ = 1 to 100 do
    let en = Random.State.bool st in
    let v = Random.State.int st 16 in
    Sim.Simulator.cycle sim
      [ ("EN", Bitvec.of_bool en); ("IN", Bitvec.of_int ~width:4 v) ];
    if en then model := (!model + v) land 15;
    Alcotest.(check int) "model agreement" !model
      (Bitvec.to_int (Sim.Simulator.peek sim "OUT"))
  done

let test_stimulus_generators () =
  let st = Random.State.make [| 1 |] in
  for _ = 1 to 50 do
    let v = Sim.Stimulus.odd_parity 5 st in
    Alcotest.(check bool) "odd parity legal" true (Bitvec.has_odd_parity v)
  done;
  let z = Sim.Stimulus.zero 3 st in
  Alcotest.(check bool) "zero gen" true (Bitvec.is_zero z);
  let c = Sim.Stimulus.constant (bv "101") st in
  Alcotest.(check int) "constant gen" 5 (Bitvec.to_int c);
  let one_of = Sim.Stimulus.choose [ bv "01"; bv "10" ] st in
  Alcotest.(check bool) "choose picks member" true
    (Bitvec.to_int one_of = 1 || Bitvec.to_int one_of = 2)

let test_legal_profile () =
  (* a module with an injection port and a parity input *)
  let m = M.create "p" in
  let m = M.add_input m "I_ERR_INJ_C" 2 in
  let m = M.add_input m "DATA" 5 in
  let m = M.add_input m "MISC" 3 in
  let m = M.add_output m "O" 5 in
  let m = M.add_assign m "O" (E.var "DATA") in
  let nl = elaborated m in
  let profile = Sim.Stimulus.legal_profile ~parity_inputs:[ "DATA" ] nl in
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 30 do
    let draw = Sim.Stimulus.draw profile st in
    Alcotest.(check bool) "injection tied to zero" true
      (Bitvec.is_zero (List.assoc "I_ERR_INJ_C" draw));
    Alcotest.(check bool) "parity input legal" true
      (Bitvec.has_odd_parity (List.assoc "DATA" draw))
  done;
  let inj_profile =
    Sim.Stimulus.injection_profile ~parity_inputs:[ "DATA" ]
      ~inject:[ ("I_ERR_INJ_C", Sim.Stimulus.constant (bv "11")) ]
      nl
  in
  let draw = Sim.Stimulus.draw inj_profile st in
  Alcotest.(check int) "injection driven" 3
    (Bitvec.to_int (List.assoc "I_ERR_INJ_C" draw))

let test_testbench_watch () =
  (* watch the accumulator's MSB: with EN always on and IN=1, the value 8
     becomes visible at the sample of cycle index 8 (after the 8th edge) *)
  let m = accumulator () in
  let m2 = M.add_wire m "msb" 1 in
  let m2 = M.add_assign m2 "msb" (E.bit (E.var "acc_q") 3) in
  let sim = Sim.Simulator.create (elaborated m2) in
  let profile =
    [ ("EN", Sim.Stimulus.constant (bv "1"));
      ("IN", Sim.Stimulus.constant (bv "0001")) ]
  in
  let run =
    Sim.Testbench.run_random sim profile ~cycles:20 ~seed:1 ~watch:[ "msb" ]
  in
  Alcotest.(check bool) "fired" true (Sim.Testbench.fired run "msb");
  Alcotest.(check (option int)) "first fire" (Some 8)
    (Sim.Testbench.first_fire run "msb");
  let stop_run =
    Sim.Testbench.run_random ~stop_on_fire:true sim profile ~cycles:20 ~seed:1
      ~watch:[ "msb" ]
  in
  Alcotest.(check int) "stops at fire" 9 stop_run.Sim.Testbench.cycles_run

let test_vcd () =
  let sim = Sim.Simulator.create (elaborated (accumulator ())) in
  Sim.Simulator.reset sim;
  let vcd = Sim.Vcd.create sim ~signals:[ "OUT"; "EN" ] in
  Sim.Vcd.sample vcd;
  Sim.Simulator.cycle sim [ ("EN", bv "1"); ("IN", bv "0001") ];
  Sim.Vcd.sample vcd;
  let text = Sim.Vcd.to_string vcd in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header" true (contains "$enddefinitions");
  Alcotest.(check bool) "has var decl" true (contains "$var wire 4");
  Alcotest.(check bool) "has timesteps" true (contains "#1")


let test_coverage () =
  let sim = Sim.Simulator.create (elaborated (accumulator ())) in
  Sim.Simulator.reset sim;
  let cov = Sim.Coverage.create sim ~signals:[ "acc_q"; "EN" ] in
  (* constant stimulus: EN stuck at 1, so its 0-polarity is never seen
     after the first sample *)
  Sim.Simulator.drive_all sim [ ("EN", bv "1"); ("IN", bv "0001") ];
  Sim.Simulator.settle sim;
  for _ = 1 to 16 do
    Sim.Coverage.sample cov;
    Sim.Simulator.clock sim
  done;
  Alcotest.(check int) "cycles sampled" 16 (Sim.Coverage.cycles_sampled cov);
  (* the 4-bit accumulator sweeps all 16 values *)
  Alcotest.(check (float 0.001)) "full value coverage" 1.0
    (Sim.Coverage.value_coverage cov "acc_q");
  let rep =
    List.find
      (fun (r : Sim.Coverage.signal_report) -> r.Sim.Coverage.signal = "acc_q")
      (Sim.Coverage.report cov)
  in
  Alcotest.(check int) "all bits toggled" 4 rep.Sim.Coverage.bits_toggled;
  Alcotest.(check (option int)) "16 values" (Some 16)
    rep.Sim.Coverage.values_seen;
  (* EN was held high while sampled, so it never toggled *)
  let en_rep =
    List.find
      (fun (r : Sim.Coverage.signal_report) -> r.Sim.Coverage.signal = "EN")
      (Sim.Coverage.report cov)
  in
  Alcotest.(check int) "EN untoggled" 0 en_rep.Sim.Coverage.bits_toggled;
  Alcotest.(check bool) "overall below 1" true
    (Sim.Coverage.toggle_coverage cov < 1.0)

let test_coverage_wide_signals () =
  let m = M.create "wide" in
  let m = M.add_input m "I" 20 in
  let m = M.add_output m "O" 20 in
  let m = M.add_assign m "O" (E.var "I") in
  let sim = Sim.Simulator.create (elaborated m) in
  Sim.Simulator.reset sim;
  let cov = Sim.Coverage.create sim ~signals:[ "O" ] in
  Sim.Simulator.drive_all sim [ ("I", Bitvec.ones 20) ];
  Sim.Simulator.settle sim;
  Sim.Coverage.sample cov;
  let rep = List.hd (Sim.Coverage.report cov) in
  Alcotest.(check (option int)) "value tracking disabled for wide" None
    rep.Sim.Coverage.values_seen;
  Alcotest.(check bool) "value_coverage raises" true
    (match Sim.Coverage.value_coverage cov "O" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_counter_activity () =
  (* simulate a free-running counter under legal stimulus and measure its
     register's switching activity *)
  let m = Chip.Archetype.counter ~name:"act_cnt" () in
  let nl = elaborated m.Chip.Archetype.mdl in
  let sim = Sim.Simulator.create nl in
  Sim.Simulator.reset sim;
  let signals = List.map fst (Rtl.Netlist.signals nl) in
  let cov = Sim.Coverage.create sim ~signals in
  let profile =
    Sim.Stimulus.legal_profile
      ~parity_inputs:m.Chip.Archetype.parity_inputs
      ~overrides:[ ("EN", Sim.Stimulus.constant (Bitvec.of_int ~width:1 1));
                   ("LOAD", Sim.Stimulus.constant (Bitvec.of_int ~width:1 0)) ]
      nl
  in
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 200 do
    Sim.Simulator.drive_all sim (Sim.Stimulus.draw profile st);
    Sim.Simulator.settle sim;
    Sim.Coverage.sample cov;
    Sim.Simulator.clock sim
  done;
  (* a free-running counter's LSB toggles every cycle: activity near 0.5
     averaged over 5 bits (bit0 = 1.0, bit1 = 0.5, ...) *)
  let a = Sim.Coverage.activity cov "cnt_q" in
  Alcotest.(check bool) "counter activity plausible" true (a > 0.3 && a < 0.6)

let () =
  Alcotest.run "sim"
    [ ("simulator",
       [ Alcotest.test_case "cycle semantics" `Quick test_cycle_semantics;
         Alcotest.test_case "settle before clock" `Quick test_settle_before_clock;
         Alcotest.test_case "drive errors" `Quick test_drive_errors;
         Alcotest.test_case "matches reference model" `Quick
           test_sim_matches_reference ]);
      ("stimulus",
       [ Alcotest.test_case "generators" `Quick test_stimulus_generators;
         Alcotest.test_case "legal profile" `Quick test_legal_profile ]);
      ("testbench",
       [ Alcotest.test_case "watching" `Quick test_testbench_watch;
         Alcotest.test_case "vcd" `Quick test_vcd ]);
      ("coverage",
       [ Alcotest.test_case "toggle and value" `Quick test_coverage;
         Alcotest.test_case "wide signals" `Quick test_coverage_wide_signals;
         Alcotest.test_case "counter activity" `Quick test_counter_activity ])
    ]
