(* Module construction, design checks, elaboration, levelization,
   cone-of-influence reduction, and Verilog emission. *)

module E = Rtl.Expr
module M = Rtl.Mdl

let bv = Bitvec.of_string

let contains text needle =
  let n = String.length needle and h = String.length text in
  let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* the paper's Figure 6 shapes: a leaf with FSM + counter and a wrapper
   tying the injection ports to zero *)
let leaf_module () =
  let m = M.create "leaf" in
  let m = M.add_input m "I_ERR_INJ_C" 2 in
  let m = M.add_input m "I_ERR_INJ_D" 4 in
  let m = M.add_input m "GO" 1 in
  let m = M.add_output m "OUT" 4 in
  let cs_next =
    E.mux (E.bit (E.var "I_ERR_INJ_C") 0) (E.var "I_ERR_INJ_D")
      (E.mux (E.var "GO") E.(var "cs" +: of_int ~width:4 1) (E.var "cs"))
  in
  let m = M.add_reg ~cls:M.Fsm ~reset:(bv "1000") m "cs" 4 cs_next in
  let cnt_next =
    E.mux (E.bit (E.var "I_ERR_INJ_C") 1) (E.var "I_ERR_INJ_D")
      E.(var "cnt" +: of_int ~width:4 1)
  in
  let m = M.add_reg ~cls:M.Counter ~reset:(bv "1000") m "cnt" 4 cnt_next in
  M.add_assign m "OUT" E.(var "cs" ^: var "cnt")

let wrapper design_leaf =
  let m = M.create "wrapper" in
  let m = M.add_input m "GO" 1 in
  let m = M.add_output m "OUT" 4 in
  M.add_instance m "leaf0" ~of_module:design_leaf.M.name
    [ ("I_ERR_INJ_C", M.Expr (E.of_int ~width:2 0));
      ("I_ERR_INJ_D", M.Expr (E.of_int ~width:4 0));
      ("GO", M.Net "GO"); ("OUT", M.Net "OUT") ]

let test_mdl_basics () =
  let m = leaf_module () in
  Alcotest.(check bool) "is leaf" true (M.is_leaf m);
  Alcotest.(check int) "signal width" 4 (M.signal_width m "cs");
  Alcotest.(check int) "ports" 4 (List.length m.M.ports);
  Alcotest.(check int) "inputs" 3 (List.length (M.inputs m));
  Alcotest.(check int) "outputs" 1 (List.length (M.outputs m));
  Alcotest.(check bool) "find reg" true (M.find_reg m "cs" <> None);
  Alcotest.check_raises "duplicate decl"
    (Invalid_argument "Mdl: GO already declared in leaf") (fun () ->
      ignore (M.add_wire m "GO" 1))

let test_design () =
  let leaf = leaf_module () in
  let d = Rtl.Design.of_modules [ leaf; wrapper leaf ] in
  Alcotest.(check bool) "closed" true (Rtl.Design.check_closed d = Ok ());
  Alcotest.(check int) "leaf modules" 1 (List.length (Rtl.Design.leaf_modules d));
  Alcotest.(check int) "submodule count" 1
    (Rtl.Design.submodule_count d ~root:"wrapper");
  let bad = M.add_instance (M.create "bad") "x" ~of_module:"nope" [] in
  let d_bad = Rtl.Design.of_modules [ bad ] in
  Alcotest.(check bool) "unbound detected" true
    (Rtl.Design.check_closed d_bad <> Ok ())

let test_check () =
  let leaf = leaf_module () in
  let d = Rtl.Design.of_modules [ leaf; wrapper leaf ] in
  Alcotest.(check int) "clean design" 0 (List.length (Rtl.Check.check_design d));
  let m = M.add_output (M.create "m1") "O" 2 in
  let issues = Rtl.Check.check_module (Rtl.Design.of_modules [ m ]) m in
  Alcotest.(check bool) "undriven output flagged" true
    (List.exists
       (fun (i : Rtl.Check.issue) -> i.Rtl.Check.what = "signal O undriven")
       issues);
  let m2 = M.create "m2" in
  let m2 = M.add_input m2 "A" 2 in
  let m2 = M.add_output m2 "O" 3 in
  let m2 = M.add_assign m2 "O" (E.var "A") in
  let issues2 = Rtl.Check.check_module (Rtl.Design.of_modules [ m2 ]) m2 in
  Alcotest.(check bool) "width mismatch flagged" true (issues2 <> []);
  let m3 = M.create "m3" in
  let m3 = M.add_input m3 "A" 1 in
  let m3 = M.add_output m3 "O" 1 in
  let m3 = M.add_assign m3 "O" (E.var "A") in
  let m3 = M.add_assign m3 "O" E.(!:(var "A")) in
  let issues3 = Rtl.Check.check_module (Rtl.Design.of_modules [ m3 ]) m3 in
  Alcotest.(check bool) "double driver flagged" true
    (List.exists
       (fun (i : Rtl.Check.issue) -> i.Rtl.Check.what = "signal O has 2 drivers")
       issues3)

let test_elaborate () =
  let leaf = leaf_module () in
  let d = Rtl.Design.of_modules [ leaf; wrapper leaf ] in
  let nl = Rtl.Elaborate.run d ~top:"wrapper" in
  Alcotest.(check bool) "valid" true (Rtl.Netlist.validate nl = Ok ());
  Alcotest.(check int) "regs flattened" 2 (List.length nl.Rtl.Netlist.regs);
  Alcotest.(check int) "state bits" 8 (Rtl.Netlist.state_bits nl);
  Alcotest.(check bool) "prefixed reg" true
    (List.exists
       (fun (r : Rtl.Netlist.flat_reg) -> r.Rtl.Netlist.name = "leaf0.cs")
       nl.Rtl.Netlist.regs);
  Alcotest.(check int) "port width lookup" 4
    (Rtl.Netlist.signal_width nl "leaf0.I_ERR_INJ_D")

let test_comb_loop () =
  let m = M.create "loopy" in
  let m = M.add_output m "O" 1 in
  let m = M.add_wire m "x" 1 in
  let m = M.add_wire m "y" 1 in
  let m = M.add_assign m "x" (E.var "y") in
  let m = M.add_assign m "y" (E.var "x") in
  let m = M.add_assign m "O" (E.var "x") in
  let d = Rtl.Design.of_modules [ m ] in
  Alcotest.(check bool) "combinational loop raises" true
    (match Rtl.Elaborate.run d ~top:"loopy" with
     | _ -> false
     | exception Rtl.Netlist.Combinational_loop _ -> true)

let test_levelize_order () =
  let m = M.create "rev" in
  let m = M.add_input m "A" 1 in
  let m = M.add_output m "O" 1 in
  let m = M.add_wire m "w1" 1 in
  let m = M.add_wire m "w2" 1 in
  let m = M.add_assign m "O" (E.var "w2") in
  let m = M.add_assign m "w2" (E.var "w1") in
  let m = M.add_assign m "w1" (E.var "A") in
  let nl = Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:"rev" in
  let order = List.map fst nl.Rtl.Netlist.assigns in
  let pos s =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing" s
      | x :: rest -> if x = s then i else go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "w1 before w2" true (pos "w1" < pos "w2");
  Alcotest.(check bool) "w2 before O" true (pos "w2" < pos "O")

let test_coi () =
  let leaf = leaf_module () in
  let d = Rtl.Design.of_modules [ leaf ] in
  let nl = Rtl.Elaborate.run d ~top:"leaf" in
  let reduced = Rtl.Coi.reduce nl ~roots:[ "cs" ] in
  Alcotest.(check int) "coi drops counter" 1
    (List.length reduced.Rtl.Netlist.regs);
  let regs, _ = Rtl.Coi.cone_size nl ~roots:[ "OUT" ] in
  Alcotest.(check int) "OUT needs both regs" 2 regs;
  Alcotest.(check bool) "missing root raises" true
    (match Rtl.Coi.reduce nl ~roots:[ "nope" ] with
     | _ -> false
     | exception Not_found -> true);
  (* one partial application serves every cone, in any order, exactly as a
     fresh application per cone does *)
  let shared = Rtl.Coi.reduce nl in
  List.iter
    (fun roots ->
      Alcotest.(check bool)
        (String.concat "," roots ^ ": shared index")
        true
        (shared ~roots = Rtl.Coi.reduce nl ~roots))
    [ [ "OUT" ]; [ "cs" ]; [ "OUT"; "cs" ]; [ "cs" ]; [] ]

let test_verilog () =
  let leaf = leaf_module () in
  let text = Rtl.Verilog.module_to_string leaf in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains text needle))
    [ "module leaf"; "input [1:0] I_ERR_INJ_C"; "always @(posedge CK";
      "endmodule"; "assign OUT" ];
  let d = Rtl.Design.of_modules [ leaf; wrapper leaf ] in
  let full = Rtl.Verilog.design_to_string d in
  Alcotest.(check bool) "wrapper ties injection" true
    (contains full ".I_ERR_INJ_C (2'b00)")

let test_map_exprs () =
  let leaf = leaf_module () in
  let renamed =
    M.map_exprs (E.subst (fun s -> if s = "GO" then Some E.tru else None)) leaf
  in
  let support =
    List.concat_map (fun (a : M.assign) -> E.support a.M.rhs) renamed.M.assigns
    @ List.concat_map (fun (r : M.reg) -> E.support r.M.next) renamed.M.regs
  in
  Alcotest.(check bool) "GO substituted away" false (List.mem "GO" support)

let test_bexpr_basics () =
  let module X = Rtl.Bexpr in
  let a = X.var 0 and b = X.var 1 in
  Alcotest.(check bool) "const fold and" true
    (X.is_const (X.and_ X.fls a) = Some false);
  Alcotest.(check bool) "const fold or" true
    (X.is_const (X.or_ X.tru a) = Some true);
  Alcotest.(check bool) "xor self" true (X.is_const (X.xor a a) = Some false);
  Alcotest.(check bool) "double negation" true
    (X.id (X.not_ (X.not_ a)) = X.id a);
  Alcotest.(check (list int)) "support" [ 0; 1 ] (X.support (X.and_ a b));
  let shared = X.and_ a b in
  let e = X.or_ shared (X.not_ shared) in
  Alcotest.(check int) "dag size counts sharing once" 3 (X.size e);
  let substituted = X.substitute (fun v -> if v = 0 then X.tru else X.var v) e in
  Alcotest.(check (list int)) "substitute" [ 1 ] (X.support substituted)

(* Two domains build nodes at the same time: every id must be distinct (a
   shared id would make Sat.Tseitin's id-keyed memo encode one node for
   another), and [var i] must get the same id in both domains *)
let test_bexpr_domains () =
  let module X = Rtl.Bexpr in
  let ready = Atomic.make 0 in
  let build () =
    (* start together: each domain waits until both are running *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let vars = Array.init 64 (fun i -> X.var (i - 32)) in
    let nodes =
      Array.init 200_000 (fun k -> X.xor vars.(k mod 64) vars.((k + 1) mod 64))
    in
    (Array.map X.id vars, Array.map X.id nodes)
  in
  let d1 = Domain.spawn build and d2 = Domain.spawn build in
  let vars1, nodes1 = Domain.join d1 and vars2, nodes2 = Domain.join d2 in
  Alcotest.(check (array int)) "var i has one id in both domains" vars1 vars2;
  let ids =
    List.sort compare
      (X.id X.tru :: X.id X.fls
       :: Array.to_list (Array.concat [ vars1; nodes1; nodes2 ]))
  in
  Alcotest.(check int) "every id distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids))


(* ---- Verilog round trip: parse (pp m) reconstructs m ---- *)

let modules_structurally_equal (a : M.t) (b : M.t) =
  a.M.name = b.M.name && a.M.ports = b.M.ports && a.M.wires = b.M.wires
  && a.M.assigns = b.M.assigns && a.M.instances = b.M.instances
  && List.map
       (fun (r : M.reg) -> (r.M.reg_name, r.M.reg_width, r.M.reset_value, r.M.next))
       a.M.regs
     = List.map
         (fun (r : M.reg) -> (r.M.reg_name, r.M.reg_width, r.M.reset_value, r.M.next))
         b.M.regs

let test_verilog_roundtrip () =
  let candidates =
    [ leaf_module ();
      (Chip.Archetype.fsm_ctrl ~name:"vp_fsm" ()).Chip.Archetype.mdl;
      (Chip.Archetype.counter ~name:"vp_cnt" ()).Chip.Archetype.mdl;
      (Chip.Archetype.csr ~name:"vp_csr" ()).Chip.Archetype.mdl;
      (Chip.Archetype.datapath ~name:"vp_alu" ()).Chip.Archetype.mdl;
      (Chip.Archetype.decoder ~name:"vp_dec" ()).Chip.Archetype.mdl;
      (Chip.Archetype.merge ~name:"vp_mrg" ()).Chip.Archetype.mdl ]
  in
  List.iter
    (fun m ->
      let text = Rtl.Verilog.module_to_string m in
      match Rtl.Vparse.parse text with
      | [ m' ] ->
        let m' = Rtl.Vparse.annotate_like ~reference:m m' in
        Alcotest.(check bool) (m.M.name ^ " roundtrips") true
          (modules_structurally_equal m m')
      | _ -> Alcotest.failf "%s: expected one module" m.M.name
      | exception Rtl.Vparse.Error (msg, pos) ->
        Alcotest.failf "%s: parse error at %d: %s" m.M.name pos msg)
    candidates

let test_verilog_roundtrip_hierarchy () =
  (* wrapper + leaf, including the Figure 6 constant tie-offs *)
  let leaf = leaf_module () in
  let d = Rtl.Design.of_modules [ leaf; wrapper leaf ] in
  let text = Rtl.Verilog.design_to_string d in
  let d' = Rtl.Vparse.parse_design text in
  Alcotest.(check int) "two modules" 2 (List.length (Rtl.Design.modules d'));
  Alcotest.(check bool) "reparsed design closed" true
    (Rtl.Design.check_closed d' = Ok ());
  (* the reparsed design must behave identically in simulation *)
  let nl = Rtl.Elaborate.run d ~top:"wrapper" in
  let nl' = Rtl.Elaborate.run d' ~top:"wrapper" in
  let sim = Sim.Simulator.create nl and sim' = Sim.Simulator.create nl' in
  Sim.Simulator.reset sim;
  Sim.Simulator.reset sim';
  let st = Random.State.make [| 77 |] in
  for _ = 1 to 100 do
    let go = Bitvec.of_bool (Random.State.bool st) in
    Sim.Simulator.cycle sim [ ("GO", go) ];
    Sim.Simulator.cycle sim' [ ("GO", go) ];
    Alcotest.(check bool) "same OUT" true
      (Bitvec.equal (Sim.Simulator.peek sim "OUT") (Sim.Simulator.peek sim' "OUT"))
  done

let test_vparse_errors () =
  let expect_error src =
    match Rtl.Vparse.parse src with
    | _ -> Alcotest.failf "accepted %S" src
    | exception Rtl.Vparse.Error _ -> ()
  in
  expect_error "module m (; endmodule";
  expect_error "module m (); reg r; endmodule";  (* reg without always *)
  expect_error "module m (); assign x = 5; endmodule";  (* bare int *)
  expect_error "module m (); wire [3:1] w; endmodule"  (* range not to 0 *)

(* ---- canonical renaming and structural fingerprints ---- *)

(* a small mealy machine, parameterized only by signal names: structural
   twins must fingerprint identically whatever they call their nets *)
let named_machine ~state ~inp ~out ~wire =
  let m = M.create ("m_" ^ state) in
  let m = M.add_input m inp 2 in
  let m = M.add_output m out 2 in
  let m = M.add_wire m wire 2 in
  let m = M.add_assign m wire E.(var state ^: var inp) in
  let m = M.add_assign m out E.(var wire +: of_int ~width:2 1) in
  M.add_reg ~cls:M.Fsm m state 2 (E.var wire)

let elab m = Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:m.M.name

let test_canon_fingerprint () =
  let a = elab (named_machine ~state:"cs" ~inp:"IN" ~out:"OUT" ~wire:"nx") in
  let b =
    elab (named_machine ~state:"zustand" ~inp:"EIN" ~out:"AUS" ~wire:"w9")
  in
  Alcotest.(check string) "structural twins share a fingerprint"
    (Rtl.Canon.fingerprint a) (Rtl.Canon.fingerprint b);
  (* roots are translated through the canonical map before digesting *)
  Alcotest.(check string) "roots are canonicalized too"
    (Rtl.Canon.fingerprint ~roots:[ "OUT" ] a)
    (Rtl.Canon.fingerprint ~roots:[ "AUS" ] b);
  Alcotest.(check bool) "roots still matter" true
    (Rtl.Canon.fingerprint ~roots:[ "OUT" ] a <> Rtl.Canon.fingerprint a);
  Alcotest.(check bool) "salt separates keys" true
    (Rtl.Canon.fingerprint ~salt:"bmc" a <> Rtl.Canon.fingerprint ~salt:"bdd" a);
  (* any structural difference must change the digest *)
  let c = elab (M.add_input (named_machine ~state:"cs" ~inp:"IN" ~out:"OUT" ~wire:"nx") "SPARE" 1) in
  Alcotest.(check bool) "extra input changes the fingerprint" true
    (Rtl.Canon.fingerprint a <> Rtl.Canon.fingerprint c)

let test_canon_rename_valid () =
  let nl = elab (named_machine ~state:"cs" ~inp:"IN" ~out:"OUT" ~wire:"nx") in
  let canon, map = Rtl.Canon.canonicalize nl in
  (match Rtl.Netlist.validate canon with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "canonical netlist invalid: %s" msg);
  Alcotest.(check (pair int int)) "same shape"
    (Rtl.Netlist.state_bits nl, List.length nl.Rtl.Netlist.assigns)
    (Rtl.Netlist.state_bits canon, List.length canon.Rtl.Netlist.assigns);
  Alcotest.(check string) "map covers declared signals" "s0" (map "IN");
  Alcotest.(check string) "unknown names map to themselves" "nope" (map "nope")

let () =
  Alcotest.run "rtl"
    [ ("module",
       [ Alcotest.test_case "basics" `Quick test_mdl_basics;
         Alcotest.test_case "map_exprs" `Quick test_map_exprs;
         Alcotest.test_case "bexpr" `Quick test_bexpr_basics;
         Alcotest.test_case "bexpr ids across domains" `Quick
           test_bexpr_domains ]);
      ("design",
       [ Alcotest.test_case "closure" `Quick test_design;
         Alcotest.test_case "lint" `Quick test_check ]);
      ("elaborate",
       [ Alcotest.test_case "flatten" `Quick test_elaborate;
         Alcotest.test_case "combinational loop" `Quick test_comb_loop;
         Alcotest.test_case "levelization order" `Quick test_levelize_order ]);
      ("analysis",
       [ Alcotest.test_case "cone of influence" `Quick test_coi;
         Alcotest.test_case "verilog emission" `Quick test_verilog ]);
      ("canon",
       [ Alcotest.test_case "structural fingerprint" `Quick
           test_canon_fingerprint;
         Alcotest.test_case "canonical rename validity" `Quick
           test_canon_rename_valid ]);
      ("verilog roundtrip",
       [ Alcotest.test_case "modules" `Quick test_verilog_roundtrip;
         Alcotest.test_case "hierarchy and simulation" `Quick
           test_verilog_roundtrip_hierarchy;
         Alcotest.test_case "parse errors" `Quick test_vparse_errors ]) ]
