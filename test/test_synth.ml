(* Gate mapping, area accounting, and static timing analysis. *)

module E = Rtl.Expr
module M = Rtl.Mdl

let simple_module () =
  (* one 2-input AND, one inverter, one 1-bit register *)
  let m = M.create "tiny" in
  let m = M.add_input m "A" 1 in
  let m = M.add_input m "B" 1 in
  let m = M.add_output m "O" 1 in
  let m = M.add_reg m "q" 1 E.(var "A" &: var "B") in
  M.add_assign m "O" E.(!:(var "q"))

let test_map_counts () =
  let nc = Synth.Map.map_module (simple_module ()) in
  Alcotest.(check int) "one AND2" 1 (Synth.Map.cell_count nc Synth.Gatelib.And2);
  Alcotest.(check int) "one INV" 1 (Synth.Map.cell_count nc Synth.Gatelib.Inv);
  Alcotest.(check int) "one DFF" 1 (Synth.Map.cell_count nc Synth.Gatelib.Dff);
  Alcotest.(check (float 0.001)) "area"
    (Synth.Gatelib.area Synth.Gatelib.And2
     +. Synth.Gatelib.area Synth.Gatelib.Inv
     +. Synth.Gatelib.area Synth.Gatelib.Dff)
    nc.Synth.Map.area_ge

let test_hierarchy_multiplies () =
  let leaf = simple_module () in
  let parent = M.create "par" in
  let parent = M.add_input parent "A" 1 in
  let parent = M.add_input parent "B" 1 in
  let parent = M.add_output parent "O1" 1 in
  let parent = M.add_output parent "O2" 1 in
  let conn o =
    [ ("A", M.Net "A"); ("B", M.Net "B"); ("O", M.Net o) ]
  in
  let parent = M.add_instance parent "u0" ~of_module:"tiny" (conn "O1") in
  let parent = M.add_instance parent "u1" ~of_module:"tiny" (conn "O2") in
  let d = Rtl.Design.of_modules [ leaf; parent ] in
  let leaf_area = Synth.Area.module_area leaf in
  Alcotest.(check (float 0.001)) "two instances double the area"
    (2.0 *. leaf_area)
    (Synth.Area.hierarchy_area d ~root:"par")

let test_increase_percent () =
  Alcotest.(check (float 0.001)) "ten percent" 10.0
    (Synth.Area.increase_percent ~base:100.0 ~with_feature:110.0);
  Alcotest.(check bool) "zero base rejected" true
    (match Synth.Area.increase_percent ~base:0.0 ~with_feature:1.0 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let elaborated m = Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:m.M.name

let test_timing_basic () =
  let r = Synth.Timing.analyze (elaborated (simple_module ())) in
  (* critical path: DFF clk-to-q + INV to output, or inputs through AND2 to
     the register input — the former is 150+30, the latter 60 *)
  Alcotest.(check (float 0.001)) "critical path" 180.0 r.Synth.Timing.critical_path_ps;
  Alcotest.(check (float 0.001)) "period at 250MHz" 4000.0 r.Synth.Timing.period_ps;
  Alcotest.(check bool) "meets timing" true (r.Synth.Timing.slack_ps > 0.0)

let test_timing_chain_depth () =
  (* an XOR tree over 8 inputs is 3 levels deep: 3 * 90ps *)
  let m = M.create "xtree" in
  let m = M.add_input m "I" 8 in
  let m = M.add_output m "P" 1 in
  let m = M.add_assign m "P" (E.red_xor (E.var "I")) in
  let arr = Synth.Timing.arrival_of_signal (elaborated m) "P" in
  Alcotest.(check (float 0.001)) "balanced xor tree depth" 270.0 arr

let test_selector_delay () =
  (* the injection selector adds exactly one MUX2 on the register path *)
  let leaf = Chip.Archetype.counter ~name:"tcnt" () in
  let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
  let base = Synth.Timing.analyze (elaborated leaf.Chip.Archetype.mdl) in
  let ver =
    Synth.Timing.analyze (elaborated info.Verifiable.Transform.mdl)
  in
  let delta =
    ver.Synth.Timing.critical_path_ps -. base.Synth.Timing.critical_path_ps
  in
  Alcotest.(check bool) "selector costs at most one MUX2" true
    (delta >= 0.0 && delta <= Synth.Timing.selector_delay_ps +. 0.001);
  Alcotest.(check (float 0.001)) "paper's 200ps selector" 200.0
    Synth.Timing.selector_delay_ps

let test_gatelib_sanity () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Synth.Gatelib.name c ^ " positive area/delay")
        true
        (Synth.Gatelib.area c > 0.0 && Synth.Gatelib.delay c > 0.0))
    Synth.Gatelib.all;
  Alcotest.(check (float 0.001)) "250MHz period" 4000.0
    (Synth.Gatelib.clock_period_ps ~frequency_mhz:250.0)

let test_xor_maps_to_xor2 () =
  let m = M.create "x" in
  let m = M.add_input m "A" 4 in
  let m = M.add_input m "B" 4 in
  let m = M.add_output m "O" 4 in
  let m = M.add_assign m "O" E.(var "A" ^: var "B") in
  let nc = Synth.Map.map_module m in
  Alcotest.(check int) "four XOR2" 4 (Synth.Map.cell_count nc Synth.Gatelib.Xor2)


let () =
  Alcotest.run "synth"
    [ ("map",
       [ Alcotest.test_case "cell counts" `Quick test_map_counts;
         Alcotest.test_case "hierarchy" `Quick test_hierarchy_multiplies;
         Alcotest.test_case "xor mapping" `Quick test_xor_maps_to_xor2;
         Alcotest.test_case "gatelib sanity" `Quick test_gatelib_sanity ]);
      ("area",
       [ Alcotest.test_case "increase percent" `Quick test_increase_percent ]);
      ("timing",
       [ Alcotest.test_case "basic" `Quick test_timing_basic;
         Alcotest.test_case "tree depth" `Quick test_timing_chain_depth;
         Alcotest.test_case "selector delay" `Quick test_selector_delay ]) ]
