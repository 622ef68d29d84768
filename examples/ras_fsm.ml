(* A RAS-grade FSM controller, by hand.

   This example builds the paper's Figure 1 "typical leaf module" directly
   against the public RTL API (rather than using a chip archetype): a
   parity-protected state machine with illegal-state detection, run through
   the Verifiable-RTL transform and all four engine families, then simulated
   with error injection to watch the hardware error report fire.

   Run with: dune exec examples/ras_fsm.exe *)

module E = Rtl.Expr
module M = Rtl.Mdl
module P = Verifiable.Parity

let section title = Printf.printf "\n=== %s ===\n" title

(* request/grant arbiter FSM: IDLE -> REQ -> GRANT -> DONE -> IDLE, encoded
   in 2 bits + an odd-parity bit *)
let arbiter () =
  let m = M.create "arbiter" in
  let m = M.add_input m "REQ" 1 in
  let m = M.add_input m "ACK" 1 in
  let m = M.add_output m "HE" 1 in
  let m = M.add_output m "GRANT" 1 in
  let m = M.add_output m "STATE" 3 in
  let state = E.slice (E.var "st_q") ~hi:1 ~lo:0 in
  let is s = E.(state ==: of_int ~width:2 s) in
  let next_state =
    E.mux (is 0)
      (E.mux (E.var "REQ") (E.of_int ~width:2 1) (E.of_int ~width:2 0))
      (E.mux (is 1) (E.of_int ~width:2 2)
         (E.mux (is 2)
            (E.mux (E.var "ACK") (E.of_int ~width:2 3) (E.of_int ~width:2 2))
            (E.of_int ~width:2 0)))
  in
  let m =
    M.add_reg ~cls:M.Fsm ~parity_protected:true
      ~reset:(Bitvec.of_string "100") m "st_q" 3 (P.encode next_state)
  in
  let m = M.add_assign m "HE" (P.violated (E.var "st_q")) in
  let m = M.add_assign m "GRANT" (is 2) in
  M.add_assign m "STATE" (E.var "st_q")

let () =
  let m = arbiter () in
  section "arbiter RTL";
  print_string (Rtl.Verilog.module_to_string m);

  section "verifiable RTL transform";
  let info = Verifiable.Transform.apply m in
  List.iter
    (fun e -> Format.printf "entity: %a@." Verifiable.Entity.pp e)
    info.Verifiable.Transform.entities;
  print_string (Rtl.Verilog.module_to_string info.Verifiable.Transform.mdl);

  section "stereotype properties";
  let spec =
    { Verifiable.Propgen.he = "HE"; he_map = [ ("st_q", 0) ];
      parity_inputs = []; parity_outputs = [ "STATE" ];
      extra =
        [ ( "pNoIllegalState",
            (* 2-bit encoding, all four codes legal -> trivially invariant;
               kept as the paper's P3 example of "other properties" *)
            Psl.Ast.Always
              (Psl.Ast.Bool
                 E.(slice (var "st_q") ~hi:1 ~lo:0
                    <: of_int ~width:2 3 |: (slice (var "st_q") ~hi:1 ~lo:0
                                             ==: of_int ~width:2 3))) ) ] }
  in
  List.iter
    (fun (cls, v) ->
      Printf.printf "-- %s --\n%s"
        (Verifiable.Propgen.class_name cls)
        (Psl.Print.vunit_to_string v))
    (Verifiable.Propgen.all info spec);

  section "model checking with every engine";
  let strategies =
    [ ("bdd-forward", Mc.Engine.Bdd_forward);
      ("bdd-backward", Mc.Engine.Bdd_backward);
      ("bdd-combined", Mc.Engine.Bdd_combined); ("pobdd", Mc.Engine.Pobdd);
      ("bmc", Mc.Engine.Bmc) ]
  in
  List.iter
    (fun (cls, vunit) ->
      List.iter
        (fun (prop, _) ->
          List.iter
            (fun (sname, strategy) ->
              let assert_ = Psl.Ast.property vunit prop in
              let assumes = List.map snd (Psl.Ast.assumes vunit) in
              let o =
                Mc.Engine.check_property ~strategy
                  info.Verifiable.Transform.mdl ~assert_ ~assumes
              in
              let verdict =
                match o.Mc.Engine.verdict with
                | Mc.Engine.Proved -> "proved"
                | Mc.Engine.Proved_bounded d ->
                  Printf.sprintf "no violation to depth %d" d
                | Mc.Engine.Failed _ -> "FAILED"
                | Mc.Engine.Resource_out r -> "resource out: " ^ r
                | Mc.Engine.Error r -> "engine error: " ^ r
              in
              Printf.printf "%-24s %-13s %-30s %s\n" prop
                (Verifiable.Propgen.class_name cls
                 |> fun s -> String.sub s 0 (min 13 (String.length s)))
                verdict sname)
            strategies)
        (Psl.Ast.asserts vunit))
    (Verifiable.Propgen.all info spec);

  section "error injection in simulation";
  let nl =
    Rtl.Elaborate.run
      (Rtl.Design.of_modules [ info.Verifiable.Transform.mdl ])
      ~top:"arbiter"
  in
  let sim = Sim.Simulator.create nl in
  Sim.Simulator.reset sim;
  (* two clean handshakes, then inject an even-parity state; every cycle is
     recorded as a trace step, with HE and GRANT as its replayed signals *)
  let recorded = ref [] in
  let drive ?(inj = false) req ack =
    let inputs =
      [ ("REQ", Bitvec.of_bool req); ("ACK", Bitvec.of_bool ack);
        (info.Verifiable.Transform.ec_port, Bitvec.of_bool inj);
        (info.Verifiable.Transform.ed_port, Bitvec.of_string "011") ]
    in
    Sim.Simulator.drive_all sim inputs;
    Sim.Simulator.settle sim;
    let peek = Sim.Simulator.peek sim in
    recorded :=
      ( { Mc.Trace.step = Sim.Simulator.cycle_count sim; inputs;
          state = [ ("st_q", peek "st_q") ] },
        [ ("HE", peek "HE"); ("GRANT", peek "GRANT") ] )
      :: !recorded;
    Printf.printf "cycle %2d  state=%s HE=%b GRANT=%b\n"
      (Sim.Simulator.cycle_count sim)
      (Bitvec.to_string (Sim.Simulator.peek sim "st_q"))
      (Sim.Simulator.peek_bit sim "HE")
      (Sim.Simulator.peek_bit sim "GRANT");
    Sim.Simulator.clock sim
  in
  drive true false;
  drive false false;
  drive false true;
  drive ~inj:true false false;  (* corrupt the state register *)
  drive false false;  (* HE must report the corruption here *)
  drive false false;
  Printf.printf "\nVCD trace (first lines):\n";
  let trace, replay = List.split (List.rev !recorded) in
  (* the header and the first cycle *)
  let rec first_cycle = function
    | [] | "#1" :: _ -> []
    | line :: rest -> line :: first_cycle rest
  in
  String.split_on_char '\n' (Mc.Trace.to_vcd ~replay trace)
  |> first_cycle
  |> List.iter print_endline
