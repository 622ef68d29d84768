module G = Chip.Generator

let table1 (chip : G.t) =
  let gates = Synth.Area.gates_estimate chip.G.design ~root:chip.G.chip_top in
  let mgates = float_of_int gates /. 1.0e6 in
  [ ("Chip die size", "12.8 x 12.5 mm2 (process target, as published)");
    ("Technology", "0.11 um CMOS ASIC (modeled gate library)");
    ("Logic size", Printf.sprintf "%.1fM gates (measured: %d GE)" mgates gates);
    ("Core frequency", "250MHz (timing target)") ]

let pp_table1 ppf rows =
  Format.fprintf ppf "Item            Implementation@.";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-15s %s@." k v) rows

type area_row = { cat : string; base_ge : float; ver_ge : float; increase_pct : float }

let table4 (chip : G.t) =
  List.map
    (fun (c : G.category) ->
      let ver_ge = Synth.Area.hierarchy_area chip.G.design ~root:c.G.top in
      let base_ge = Synth.Area.hierarchy_area chip.G.base_design ~root:c.G.top in
      { cat = c.G.cat_name; base_ge; ver_ge;
        increase_pct = Synth.Area.increase_percent ~base:base_ge ~with_feature:ver_ge })
    chip.G.categories

let pp_table4 ppf rows =
  Format.fprintf ppf "Module Name   Area Increase@.";
  List.iter
    (fun r -> Format.fprintf ppf "%-13s %.1f %%@." r.cat r.increase_pct)
    rows

type timing = {
  base_path_ps : float;
  ver_path_ps : float;
  selector_delay_ps : float;
  period_ps : float;
  selector_pct_of_path : float;
  meets_timing : bool;
}

let elaborate_alone (m : Rtl.Mdl.t) =
  Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:m.Rtl.Mdl.name

let timing_impact (chip : G.t) =
  let _, alu = G.find_unit chip Chip.Bugs.B4 in
  let base_nl = elaborate_alone alu.G.leaf.Chip.Archetype.mdl in
  let ver_nl = elaborate_alone alu.G.info.Verifiable.Transform.mdl in
  let base = Synth.Timing.analyze base_nl in
  let ver = Synth.Timing.analyze ver_nl in
  let period_ps = ver.Synth.Timing.period_ps in
  { base_path_ps = base.Synth.Timing.critical_path_ps;
    ver_path_ps = ver.Synth.Timing.critical_path_ps;
    selector_delay_ps = Synth.Timing.selector_delay_ps; period_ps;
    selector_pct_of_path = Synth.Timing.selector_delay_ps /. period_ps *. 100.0;
    meets_timing = ver.Synth.Timing.critical_path_ps <= period_ps }

let pp_timing ppf t =
  Format.fprintf ppf
    "selector delay: %.0f ps (%.1f%% of the %.0f ps cycle at 250MHz)@."
    t.selector_delay_ps t.selector_pct_of_path t.period_ps;
  Format.fprintf ppf
    "critical path: %.0f ps without injection, %.0f ps with injection@."
    t.base_path_ps t.ver_path_ps;
  Format.fprintf ppf "timing closure at 250MHz: %s@."
    (if t.meets_timing then "met (no issue, as in the paper)" else "VIOLATED")

type fig7_outcome = {
  piece : string;
  verdict : string;
  engine : string;
  state_bits : int;
  work_nodes : int;
  time_s : float;
}

let verdict_string = function
  | Mc.Engine.Proved -> "proved"
  | Mc.Engine.Proved_bounded d -> Printf.sprintf "no violation up to %d" d
  | Mc.Engine.Failed _ -> "FAILED"
  | Mc.Engine.Resource_out msg -> "time-out (" ^ msg ^ ")"
  | Mc.Engine.Error msg -> "ERROR (" ^ msg ^ ")"

let check_piece ~budget ~piece mdl vunit =
  match Psl.Ast.asserts vunit with
  | [ (_, assert_) ] ->
    let ob =
      Mc.Obligation.prepare ~budget ~strategy:Mc.Engine.Bdd_forward mdl
        ~assert_ ~assumes:(List.map snd (Psl.Ast.assumes vunit)) ~meta:()
    in
    let state_bits, _ = Mc.Obligation.size ob in
    let o = Mc.Obligation.run ob in
    { piece; verdict = verdict_string o.Mc.Engine.verdict;
      engine = o.Mc.Engine.engine_used; state_bits;
      work_nodes = o.Mc.Engine.work_nodes; time_s = o.Mc.Engine.time_s }
  | _ -> invalid_arg "Report.fig7: expected a single assert"

let fig7 ?(payload_width = 16) ?(node_limit = 300_000) () =
  let leaf = Chip.Archetype.merge ~name:"fig7_merge" ~payload_width () in
  let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
  let spec =
    { Verifiable.Propgen.he = leaf.Chip.Archetype.he;
      he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs;
      extra = [] }
  in
  let plan =
    Verifiable.Partition.partition info spec ~output:"OUT"
      ~cuts:[ "chk0"; "chk1"; "chk2" ]
  in
  let budget =
    { Mc.Engine.default_budget with
      Mc.Engine.bdd_node_limit = Some node_limit }
  in
  let monolithic =
    check_piece ~budget ~piece:"integrity of D (monolithic)"
      info.Verifiable.Transform.mdl plan.Verifiable.Partition.original
  in
  let subs =
    List.map
      (fun (cut, vunit) ->
        check_piece ~budget
          ~piece:(Printf.sprintf "integrity of %s (sub-property)" cut)
          info.Verifiable.Transform.mdl vunit)
      plan.Verifiable.Partition.sub_vunits
  in
  let final =
    check_piece ~budget ~piece:"integrity of D (from cut points)"
      plan.Verifiable.Partition.cut_mdl plan.Verifiable.Partition.final_vunit
  in
  monolithic :: (subs @ [ final ])

let pp_fig7 ppf rows =
  Format.fprintf ppf
    "Piece                             Verdict                 State  Nodes     Time@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-33s %-23s %-6d %-9d %.2fs@." r.piece r.verdict
        r.state_bits r.work_nodes r.time_s)
    rows
