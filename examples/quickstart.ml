(* Quickstart: the full methodology on one leaf module, end to end.

   1. A designer writes a parity-protected loadable counter.
   2. The Verifiable-RTL transform adds error-injection ports (Figure 6).
   3. The three stereotype property sets are generated as PSL (Figures 2-4).
   4. The model checker proves all of them.
   5. A bug is seeded and the same flow catches it, with a counterexample.

   Run with: dune exec examples/quickstart.exe *)

module E = Rtl.Expr
module PG = Verifiable.Propgen

let section title = Printf.printf "\n=== %s ===\n" title

let spec_of (leaf : Chip.Archetype.leaf) =
  { PG.he = leaf.Chip.Archetype.he; he_map = leaf.Chip.Archetype.he_map;
    parity_inputs = leaf.Chip.Archetype.parity_inputs;
    parity_outputs = leaf.Chip.Archetype.parity_outputs;
    extra = leaf.Chip.Archetype.extra_props }

let verdict_text = function
  | Mc.Engine.Proved -> "proved"
  | Mc.Engine.Proved_bounded d -> Printf.sprintf "no violation up to %d" d
  | Mc.Engine.Failed _ -> "FAILED"
  | Mc.Engine.Resource_out msg -> "resource out: " ^ msg
  | Mc.Engine.Error msg -> "engine error: " ^ msg

(* The design flow of Figure 5: the designer releases lint-clean Verifiable
   RTL and its PSL; the verification engineer model-checks every assert of
   every vunit and feeds the failures back. *)
let run_flow title leaf =
  section title;
  let mdl = leaf.Chip.Archetype.mdl in
  match Rtl.Check.check_module (Rtl.Design.of_modules [ mdl ]) mdl with
  | _ :: _ as issues ->
    Printf.printf "RTL not releasable:\n";
    List.iter (fun i -> Format.printf "  %a@." Rtl.Check.pp_issue i) issues
  | [] ->
    let info = Verifiable.Transform.apply mdl in
    let vunits = PG.all info (spec_of leaf) in
    Printf.printf "released PSL:\n%s\n"
      (String.concat "\n"
         (List.map (fun (_, v) -> Psl.Print.vunit_to_string v) vunits));
    let feedback =
      List.concat_map
        (fun (cls, vunit) ->
          List.map
            (fun (prop, outcome) -> (prop, cls, outcome))
            (Mc.Engine.check_vunit info.Verifiable.Transform.mdl vunit))
        vunits
    in
    List.iter
      (fun (prop, cls, (o : Mc.Engine.outcome)) ->
        Printf.printf "  %-28s [%s] %s (%s, %.3fs)\n" prop (PG.class_name cls)
          (verdict_text o.Mc.Engine.verdict) o.Mc.Engine.engine_used
          o.Mc.Engine.time_s)
      feedback;
    let failures =
      List.filter_map
        (fun (prop, _, (o : Mc.Engine.outcome)) ->
          match o.Mc.Engine.verdict with
          | Mc.Engine.Failed trace -> Some (prop, trace)
          | Mc.Engine.Proved | Mc.Engine.Proved_bounded _
          | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
            None)
        feedback
    in
    if failures = [] then
      Printf.printf "--> all %d properties verified\n" (List.length feedback)
    else begin
      Printf.printf "--> %d properties FAILED; feedback to the designer:\n"
        (List.length failures);
      List.iter
        (fun (prop, trace) ->
          Printf.printf "counterexample for %s:\n%s" prop
            (Mc.Trace.to_string trace))
        failures
    end

let () =
  section "the designer's RTL (Verilog view)";
  let clean = Chip.Archetype.counter ~name:"cnt" () in
  print_string (Rtl.Verilog.module_to_string clean.Chip.Archetype.mdl);
  run_flow "flow on the correct counter" clean;
  run_flow "flow on the counter with the B2 wrap-around parity bug"
    (Chip.Archetype.counter ~name:"cnt_bug" ~bug:true ())
