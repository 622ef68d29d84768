(* Model-checking engines: symbolic FSM construction, reachability
   fixpoints, engine agreement, counterexample replay, BMC. *)

module E = Rtl.Expr
module M = Rtl.Mdl


let elaborated m = Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:m.M.name

(* mod-5 counter with an ERROR flag that never rises *)
let mod5 () =
  let m = M.create "mod5" in
  let m = M.add_input m "EN" 1 in
  let m = M.add_output m "ERR" 1 in
  let wrap = E.(var "c" ==: of_int ~width:3 4) in
  let next =
    E.mux (E.var "EN")
      (E.mux wrap (E.of_int ~width:3 0) E.(var "c" +: of_int ~width:3 1))
      (E.var "c")
  in
  let m = M.add_reg m "c" 3 next in
  (* ERR is high only in the unreachable states 5, 6, 7 *)
  M.add_assign m "ERR" (E.( !: ) E.(var "c" <: of_int ~width:3 5))

let test_sym_basics () =
  let nl = elaborated (mod5 ()) in
  let sym = Mc.Sym.create nl in
  Alcotest.(check int) "state bits" 3 (Mc.Sym.num_state_bits sym);
  Alcotest.(check int) "input bits" 1 (Mc.Sym.num_input_bits sym);
  Alcotest.(check (pair string int)) "state bit name" ("c", 0)
    (Mc.Sym.state_bit_name sym 0);
  Alcotest.(check (pair string int)) "input bit name" ("EN", 0)
    (Mc.Sym.input_bit_name sym 0);
  (* the initial state is the all-zero cube *)
  let man = Mc.Sym.man sym in
  Alcotest.(check bool) "init evaluates at zero" true
    (Bdd.eval man (fun _ -> false) (Mc.Sym.init sym))

let test_reachable_count () =
  let nl = elaborated (mod5 ()) in
  let sym = Mc.Sym.create nl in
  let man = Mc.Sym.man sym in
  let reached = Mc.Reach.reachable sym in
  (* count over the 3 current-state variables only: quantify the rest away *)
  let only_states =
    Bdd.exists man (Mc.Sym.inp_vars sym @ Mc.Sym.nxt_vars sym) reached
  in
  let count =
    Bdd.sat_count man only_states /. (2.0 ** float_of_int (Bdd.nvars man - 3))
  in
  Alcotest.(check (float 0.01)) "mod-5 counter reaches 5 states" 5.0 count

let check_verdict name expected (o : Mc.Engine.outcome) =
  let got =
    match o.Mc.Engine.verdict with
    | Mc.Engine.Proved -> "proved"
    | Mc.Engine.Proved_bounded _ -> "bounded"
    | Mc.Engine.Failed _ -> "failed"
    | Mc.Engine.Resource_out _ -> "resource"
    | Mc.Engine.Error _ -> "error"
  in
  Alcotest.(check string) name expected got

let all_strategies =
  [ ("forward", Mc.Engine.Bdd_forward); ("backward", Mc.Engine.Bdd_backward);
    ("combined", Mc.Engine.Bdd_combined); ("pobdd", Mc.Engine.Pobdd) ]

let test_engines_prove_true_invariant () =
  let m = mod5 () in
  let assert_ = Psl.Parser.fl_of_string "never ERR" in
  List.iter
    (fun (name, strategy) ->
      check_verdict name "proved"
        (Mc.Engine.check_property ~strategy m ~assert_ ~assumes:[]))
    all_strategies;
  (* BMC can only bound it *)
  check_verdict "bmc" "bounded"
    (Mc.Engine.check_property ~strategy:Mc.Engine.Bmc m ~assert_ ~assumes:[])

let test_engines_find_violation () =
  let m = mod5 () in
  (* "counter stays below 3" is violated at depth 3 *)
  let assert_ = Psl.Parser.fl_of_string "always (c < 3'b011)" in
  List.iter
    (fun (name, strategy) ->
      match
        (Mc.Engine.check_property ~strategy m ~assert_ ~assumes:[]).Mc.Engine.verdict
      with
      | Mc.Engine.Failed trace ->
        (* the BDD traversals produce shortest counterexamples (state 3 is
           reached after 3 enabled steps); BMC may return any depth *)
        if strategy = Mc.Engine.Bmc then
          Alcotest.(check bool) (name ^ " trace length") true
            (Mc.Trace.length trace >= 4)
        else
          Alcotest.(check int) (name ^ " trace length") 4
            (Mc.Trace.length trace)
      | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ | Mc.Engine.Resource_out _
      | Mc.Engine.Error _ ->
        Alcotest.failf "%s: expected failure" name)
    (all_strategies @ [ ("bmc", Mc.Engine.Bmc) ])

(* replay a counterexample in the simulator and confirm the monitor fires *)
let replay_confirms m assert_ assumes trace =
  let inst = Psl.Monitor.instrument m ~prefix:"replay" ~assert_ ~assumes in
  let nl = elaborated inst.Psl.Monitor.mdl in
  let sim = Sim.Simulator.create nl in
  Sim.Simulator.reset sim;
  let fired = ref false in
  List.iter
    (fun inputs ->
      Sim.Simulator.drive_all sim inputs;
      Sim.Simulator.settle sim;
      if Sim.Simulator.peek_bit sim inst.Psl.Monitor.fail_signal then
        fired := true;
      Sim.Simulator.clock sim)
    (Mc.Trace.replay_stimulus trace);
  !fired

let test_trace_replay () =
  let m = mod5 () in
  let assert_ = Psl.Parser.fl_of_string "always (c < 3'b100)" in
  List.iter
    (fun (name, strategy) ->
      match
        (Mc.Engine.check_property ~strategy m ~assert_ ~assumes:[]).Mc.Engine.verdict
      with
      | Mc.Engine.Failed trace ->
        Alcotest.(check bool) (name ^ " replay fires monitor") true
          (replay_confirms m assert_ [] trace)
      | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ | Mc.Engine.Resource_out _
      | Mc.Engine.Error _ ->
        Alcotest.failf "%s: expected failure" name)
    (all_strategies @ [ ("bmc", Mc.Engine.Bmc) ])

let test_assumes_constrain () =
  (* without the assumption the property fails; with EN assumed low the
     counter never moves and it holds *)
  let m = mod5 () in
  let assert_ = Psl.Parser.fl_of_string "always (c == 3'b000)" in
  check_verdict "fails unconstrained" "failed"
    (Mc.Engine.check_property m ~assert_ ~assumes:[]);
  let no_en = Psl.Parser.fl_of_string "always (~EN)" in
  check_verdict "holds under assumption" "proved"
    (Mc.Engine.check_property m ~assert_ ~assumes:[ no_en ])

let test_image_preimage_duality () =
  (* Img(S) ∩ B ≠ ∅  iff  S ∩ Pre(B) ≠ ∅, for random state sets *)
  let nl = elaborated (mod5 ()) in
  let sym = Mc.Sym.create nl in
  let man = Mc.Sym.man sym in
  let st = Random.State.make [| 13 |] in
  let random_state_set () =
    (* random subset of the 8 states as a disjunction of cubes *)
    let set = ref (Bdd.zero man) in
    for v = 0 to 7 do
      if Random.State.bool st then begin
        let cube =
          Bdd.cube man
            (List.init 3 (fun i -> (Mc.Sym.cur_var sym i, v lsr i land 1 = 1)))
        in
        set := Bdd.or_ man !set cube
      end
    done;
    !set
  in
  for _ = 1 to 50 do
    let s = random_state_set () and b = random_state_set () in
    let forward = not (Bdd.is_zero (Bdd.and_ man (Mc.Reach.image sym s) b)) in
    let backward =
      not (Bdd.is_zero (Bdd.and_ man s (Mc.Reach.pre_image sym b)))
    in
    Alcotest.(check bool) "duality" forward backward
  done

let test_bmc_shortest () =
  let m = mod5 () in
  let inst =
    Psl.Monitor.instrument m ~prefix:"fs"
      ~assert_:(Psl.Parser.fl_of_string "always (c < 3'b100)")
      ~assumes:[]
  in
  let nl = elaborated inst.Psl.Monitor.mdl in
  (match
     Mc.Bmc.check nl ~ok_signal:inst.Psl.Monitor.invariant_ok ~depth:20
   with
   | Mc.Bmc.Violation (trace, stats) ->
     Alcotest.(check int) "minimal depth" 4 stats.Mc.Bmc.depth;
     Alcotest.(check int) "minimal trace" 5 (Mc.Trace.length trace)
   | Mc.Bmc.No_violation_upto _ | Mc.Bmc.Inconclusive _ ->
     Alcotest.fail "expected violation");
  (* a true invariant is clean through the whole sweep *)
  let inst2 =
    Psl.Monitor.instrument m ~prefix:"fs2"
      ~assert_:(Psl.Parser.fl_of_string "never ERR")
      ~assumes:[]
  in
  let nl2 = elaborated inst2.Psl.Monitor.mdl in
  match
    Mc.Bmc.check nl2 ~ok_signal:inst2.Psl.Monitor.invariant_ok ~depth:10
  with
  | Mc.Bmc.No_violation_upto (d, _) -> Alcotest.(check int) "swept to 10" 10 d
  | Mc.Bmc.Violation _ | Mc.Bmc.Inconclusive _ -> Alcotest.fail "expected clean"

let test_bmc_depth_sensitivity () =
  (* violation at depth 4 is missed with depth 3 and found with depth 4 *)
  let m = mod5 () in
  let nl_budget d =
    { Mc.Engine.default_budget with Mc.Engine.bmc_depth = d }
  in
  let assert_ = Psl.Parser.fl_of_string "always (c < 3'b100)" in
  check_verdict "depth 3 misses" "bounded"
    (Mc.Engine.check_property ~budget:(nl_budget 3) ~strategy:Mc.Engine.Bmc m
       ~assert_ ~assumes:[]);
  check_verdict "depth 4 finds" "failed"
    (Mc.Engine.check_property ~budget:(nl_budget 4) ~strategy:Mc.Engine.Bmc m
       ~assert_ ~assumes:[])

let test_node_limit_escalation () =
  (* a tiny node budget forces the Auto strategy down to BMC *)
  let m = mod5 () in
  let budget =
    { Mc.Engine.default_budget with
      Mc.Engine.bdd_node_limit = Some 16; pobdd_node_limit = Some 16 }
  in
  let assert_ = Psl.Parser.fl_of_string "never ERR" in
  let o = Mc.Engine.check_property ~budget ~strategy:Mc.Engine.Auto m ~assert_ ~assumes:[] in
  Alcotest.(check string) "fell back to bmc" "bmc" o.Mc.Engine.engine_used;
  check_verdict "bounded result" "bounded" o

let test_strategy_names_roundtrip () =
  (* one shared parser for every CLI entry point: names must round-trip *)
  List.iter
    (fun s ->
      let name = Mc.Engine.strategy_name s in
      match Mc.Engine.strategy_of_string name with
      | Some s' ->
        Alcotest.(check bool) (name ^ " round-trips") true (s' = s)
      | None -> Alcotest.failf "%s does not parse back" name)
    [ Mc.Engine.Bdd_forward; Mc.Engine.Bdd_backward; Mc.Engine.Bdd_combined;
      Mc.Engine.Pobdd; Mc.Engine.Bmc; Mc.Engine.Kind; Mc.Engine.Ic3;
      Mc.Engine.Auto ];
  Alcotest.(check bool) "unknown name rejected" true
    (Mc.Engine.strategy_of_string "frobnicate" = None);
  (* portfolios are structured values, not names *)
  let p =
    Mc.Engine.default_portfolio Mc.Engine.default_budget
  in
  Alcotest.(check bool) "portfolio names not parsed" true
    (Mc.Engine.strategy_of_string
       (Mc.Engine.strategy_name (Mc.Engine.Portfolio p))
     = None)

let test_problem_size () =
  let m = mod5 () in
  let assert_ = Psl.Parser.fl_of_string "never ERR" in
  let state, inputs = Mc.Engine.problem_size m ~assert_ ~assumes:[] in
  (* 3 counter bits + monitor bookkeeping registers *)
  Alcotest.(check bool) "state includes monitor" true (state >= 3);
  Alcotest.(check int) "one input bit" 1 inputs

(* k-induction engine *)
let test_kinduction () =
  let m = mod5 () in
  (* inductive at k=0: ERR is combinationally false for states < 5, but
     states 5..7 satisfy nothing... the invariant needs the reachable-set
     strengthening, so plain induction must still prove via deeper k or
     stay inconclusive — accept either Proved or Resource_out, never Failed *)
  let assert_ = Psl.Parser.fl_of_string "never ERR" in
  let o =
    Mc.Engine.check_property ~strategy:Mc.Engine.Kind m ~assert_ ~assumes:[]
  in
  (match o.Mc.Engine.verdict with
   | Mc.Engine.Proved | Mc.Engine.Resource_out _ -> ()
   | Mc.Engine.Failed _ -> Alcotest.fail "k-induction claimed a violation"
   | Mc.Engine.Proved_bounded _ -> Alcotest.fail "unexpected bounded verdict"
   | Mc.Engine.Error m -> Alcotest.failf "unexpected error verdict: %s" m);
  (* a real violation must surface through the base case with a trace *)
  let bad = Psl.Parser.fl_of_string "always (c < 3'b100)" in
  (match
     (Mc.Engine.check_property ~strategy:Mc.Engine.Kind m ~assert_:bad
        ~assumes:[]).Mc.Engine.verdict
   with
   | Mc.Engine.Failed trace ->
     Alcotest.(check bool) "trace replays" true (replay_confirms m bad [] trace)
   | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ | Mc.Engine.Resource_out _
   | Mc.Engine.Error _ ->
     Alcotest.fail "expected violation");
  (* an invariant that is inductive at depth 0: a self-holding register *)
  let m2 = M.create "hold" in
  let m2 = M.add_output m2 "OK" 1 in
  let m2 = M.add_reg ~reset:(Bitvec.of_string "1") m2 "h" 1 (E.var "h") in
  let m2 = M.add_assign m2 "OK" (E.var "h") in
  let o2 =
    Mc.Engine.check_property ~strategy:Mc.Engine.Kind m2
      ~assert_:(Psl.Parser.fl_of_string "always OK") ~assumes:[]
  in
  (match o2.Mc.Engine.verdict with
   | Mc.Engine.Proved -> ()
   | Mc.Engine.Proved_bounded _ | Mc.Engine.Failed _
   | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
     Alcotest.fail "self-holding invariant should be inductive")

(* k-induction agrees with BDD reachability across the chip's bug modules *)
let test_kinduction_agrees_on_bugs () =
  let chip = Chip.Generator.generate () in
  List.iter
    (fun bug ->
      let _, u = Chip.Generator.find_unit chip bug in
      let mdl = u.Chip.Generator.info.Verifiable.Transform.mdl in
      let vunits = Verifiable.Propgen.all u.Chip.Generator.info u.Chip.Generator.spec in
      List.iter
        (fun (_, vunit) ->
          List.iter
            (fun (name, assert_) ->
              let assumes = List.map snd (Psl.Ast.assumes vunit) in
              let bdd =
                Mc.Engine.check_property ~strategy:Mc.Engine.Bdd_forward mdl
                  ~assert_ ~assumes
              in
              let kind =
                Mc.Engine.check_property ~strategy:Mc.Engine.Kind mdl ~assert_
                  ~assumes
              in
              match (bdd.Mc.Engine.verdict, kind.Mc.Engine.verdict) with
              | Mc.Engine.Failed _, Mc.Engine.Failed _ -> ()
              | Mc.Engine.Proved, (Mc.Engine.Proved | Mc.Engine.Resource_out _)
                ->
                ()
              | _ -> Alcotest.failf "%s: engines disagree" name)
            (Psl.Ast.asserts vunit))
        vunits)
    [ Chip.Bugs.B2; Chip.Bugs.B4 ]

(* IC3/PDR engine *)
let test_ic3 () =
  let m = mod5 () in
  (* "never ERR" needs the reachable-set strengthening plain induction
     lacks: IC3 must learn the frame clauses and prove it unbounded *)
  let assert_ = Psl.Parser.fl_of_string "never ERR" in
  let o =
    Mc.Engine.check_property ~strategy:Mc.Engine.Ic3 m ~assert_ ~assumes:[]
  in
  check_verdict "proves never ERR" "proved" o;
  Alcotest.(check string) "attributed to ic3" "ic3" o.Mc.Engine.engine_used;
  Alcotest.(check bool) "frame count recorded" true
    (o.Mc.Engine.perf.Mc.Engine.ic3_frames >= 0);
  (* a real violation surfaces with a replay-confirmed trace *)
  let bad = Psl.Parser.fl_of_string "always (c < 3'b100)" in
  (match
     (Mc.Engine.check_property ~strategy:Mc.Engine.Ic3 m ~assert_:bad
        ~assumes:[]).Mc.Engine.verdict
   with
   | Mc.Engine.Failed trace ->
     Alcotest.(check bool) "trace replays" true (replay_confirms m bad [] trace)
   | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ | Mc.Engine.Resource_out _
   | Mc.Engine.Error _ ->
     Alcotest.fail "expected violation");
  (* an exhausted frame budget is the canonical resource-out *)
  let tight =
    { Mc.Engine.default_budget with Mc.Engine.ic3_max_frames = 1 }
  in
  let o' =
    Mc.Engine.check_property ~budget:tight ~strategy:Mc.Engine.Ic3 m ~assert_
      ~assumes:[]
  in
  match o'.Mc.Engine.verdict with
  | Mc.Engine.Proved -> ()  (* 1 frame can suffice if the fixpoint is early *)
  | Mc.Engine.Resource_out _ ->
    Alcotest.(check (option string)) "canonical cause" (Some "ic3-frames")
      (Mc.Engine.resource_cause o')
  | Mc.Engine.Proved_bounded _ | Mc.Engine.Failed _ | Mc.Engine.Error _ ->
    Alcotest.fail "tight frame budget must prove or run out"

(* the portfolio's reason to exist: a wrapping 4-bit counter whose states
   8..15 are unreachable but form arbitrarily long simple paths satisfying
   the property — plain k-induction can never close it, IC3 learns the
   strengthening clauses and proves it *)
let wrap8 () =
  let m = M.create "wrap8" in
  let m = M.add_output m "OK" 1 in
  let next =
    E.mux
      E.(var "s" ==: of_int ~width:4 7)
      (E.of_int ~width:4 0)
      E.(var "s" +: of_int ~width:4 1)
  in
  let m = M.add_reg m "s" 4 next in
  let m = M.add_assign m "OK" (E.( !: ) E.(var "s" ==: of_int ~width:4 12)) in
  (m, Psl.Parser.fl_of_string "always OK")

let test_ic3_proves_kind_inconclusive () =
  let m, assert_ = wrap8 () in
  let budget =
    { Mc.Engine.default_budget with Mc.Engine.induction_max_k = 3 }
  in
  let kind =
    Mc.Engine.check_property ~budget ~strategy:Mc.Engine.Kind m ~assert_
      ~assumes:[]
  in
  Alcotest.(check (option string)) "k-induction is inconclusive"
    (Some "kind-inconclusive") (Mc.Engine.resource_cause kind);
  let ic3 =
    Mc.Engine.check_property ~budget ~strategy:Mc.Engine.Ic3 m ~assert_
      ~assumes:[]
  in
  check_verdict "ic3 proves it" "proved" ic3;
  Alcotest.(check bool) "proof needed at least one frame" true
    (ic3.Mc.Engine.perf.Mc.Engine.ic3_frames >= 1)

(* the instrumented netlist of one obligation of the seeded pre-fix chip *)
let seeded_chip =
  lazy (Core.Campaign.work_items (Chip.Generator.generate ~with_bugs:true ()))

let chip_cone mdl_name prop_name =
  let w =
    List.find
      (fun (w : Core.Campaign.work) ->
        w.Core.Campaign.w_mdl.Rtl.Mdl.name = mdl_name
        && w.Core.Campaign.w_prop_name = prop_name)
      (Lazy.force seeded_chip)
  in
  Mc.Engine.instrumented_netlist w.Core.Campaign.w_mdl
    ~assert_:w.Core.Campaign.w_assert ~assumes:w.Core.Campaign.w_assumes

(* IC3's search, pinned in both modes: frames, clauses, CTIs, queries and
   the summed solver counters of two proofs. Any change to how cubes are
   generalized, to the query encoding or to the solver moves them. *)
let test_ic3_pinned_search () =
  let pin label (nl, ok_signal, constraint_signal) ~expected =
    List.iter2
      (fun incremental (frames, clauses, ctis, sat_calls, sat) ->
        let label =
          label ^ if incremental then " (incremental)" else " (scratch)"
        in
        match
          Mc.Ic3.check ~incremental ?constraint_signal nl ~ok_signal
        with
        | Mc.Ic3.Proved (s, _) ->
          let row (st : Solver.stats) =
            [ st.decisions; st.conflicts; st.propagations; st.restarts;
              st.learned ]
          in
          Alcotest.(check (list int)) (label ^ " stats")
            ([ frames; clauses; ctis; sat_calls ] @ sat)
            ([ s.Mc.Ic3.frames; s.Mc.Ic3.clauses; s.Mc.Ic3.ctis;
               s.Mc.Ic3.sat_calls ]
            @ row s.Mc.Ic3.sat)
        | Mc.Ic3.Violation _ | Mc.Ic3.Inconclusive _ ->
          Alcotest.failf "%s: expected a proof" label)
      [ true; false ] expected
  in
  let m, assert_ = wrap8 () in
  pin "wrap8"
    (Mc.Engine.instrumented_netlist m ~assert_ ~assumes:[])
    ~expected:
      [ (4, 6, 6, 35, [ 27; 7; 1100; 0; 0 ]);
        (5, 15, 15, 85, [ 32; 10; 1010; 0; 0 ]) ];
  pin "E_leaf00.pNoError_1"
    (chip_cone "E_leaf00" "pNoError_1")
    ~expected:
      [ (8, 118, 118, 794, [ 12472; 604; 71388; 0; 215 ]);
        (8, 139, 139, 966, [ 17981; 3045; 83146; 0; 2650 ]) ]

(* the instrumented netlist of one obligation of a Qa.Gen fuzz design *)
let fuzz_cone ~seed ~index prop_name =
  let case = Qa.Gen.case_of ~seed ~index in
  let assumes, assert_ =
    List.find_map
      (fun (_, vu) ->
        Option.map
          (fun a -> (List.map snd (Psl.Ast.assumes vu), a))
          (List.assoc_opt prop_name (Psl.Ast.asserts vu)))
      (Verifiable.Propgen.all case.Qa.Gen.info case.Qa.Gen.spec)
    |> Option.get
  in
  Mc.Engine.instrumented_netlist case.Qa.Gen.info.Verifiable.Transform.mdl
    ~assert_ ~assumes

(* one BDD traversal on a fresh manager with an always-false interrupt
   installed, so that its polls are counted *)
let bdd_work ?node_limit (nl, ok_signal, constraint_signal) engine =
  let sym = Mc.Sym.create ?node_limit ~interrupt:(fun () -> false) nl in
  let ok = Mc.Sym.signal_bit sym ok_signal 0 in
  let constrain =
    Option.map (fun c -> Mc.Sym.signal_bit sym c 0) constraint_signal
  in
  let check :
      ?constrain:Bdd.t -> ?deadline:Mc.Deadline.t -> Mc.Sym.t -> ok:Bdd.t ->
      Mc.Reach.result =
    match engine with
    | "forward" -> Mc.Reach.check_forward
    | "backward" -> Mc.Reach.check_backward
    | "combined" -> Mc.Reach.check_combined
    | "pobdd" ->
      Mc.Umc.check_forward_partitioned
        ~num_split_vars:Mc.Engine.default_budget.Mc.Engine.pobdd_split_vars
    | other -> invalid_arg other
  in
  (sym, fun () -> check ?constrain sym ~ok)

(* The BDD engines' exact work, pinned: verdict, trace length, fixpoint
   iterations, arena size, largest set and interrupt polls of two seeded
   cones and one fuzz design under every BDD traversal. The arena is
   hash-consed and never collected, so these move when the operations
   build other nodes or build them in another order, and not when the same
   nodes are built faster. *)
let test_bdd_pinned_work () =
  let pin label cone ~expected =
    let got =
      List.map
        (fun engine ->
          let sym, run = bdd_work cone engine in
          let verdict, (s : Mc.Reach.stats) =
            match run () with
            | Mc.Reach.Proved s -> ("proved", s)
            | Mc.Reach.Failed (trace, s) ->
              (Printf.sprintf "failed in %d" (Mc.Trace.length trace), s)
          in
          Printf.sprintf "%s %s: %d iterations, %d nodes, set %d, %d polls"
            engine verdict s.Mc.Reach.iterations s.Mc.Reach.bdd_nodes
            s.Mc.Reach.peak_set_size
            (Bdd.interrupt_polls (Mc.Sym.man sym)))
        [ "forward"; "backward"; "combined"; "pobdd" ]
    in
    Alcotest.(check (list string)) label expected got
  in
  pin "E_leaf00.pNoError_1" (chip_cone "E_leaf00" "pNoError_1")
    ~expected:
      [ "forward proved: 7 iterations, 1843 nodes, set 33, 0 polls";
        "backward proved: 0 iterations, 845 nodes, set 20, 0 polls";
        "combined proved: 0 iterations, 1260 nodes, set 20, 0 polls";
        "pobdd proved: 7 iterations, 1989 nodes, set 33, 0 polls" ];
  pin "a_csr.pNoError_0" (chip_cone "a_csr" "pNoError_0")
    ~expected:
      [ "forward failed in 2: 1 iterations, 891 nodes, set 20, 0 polls";
        "backward failed in 2: 1 iterations, 600 nodes, set 22, 0 polls";
        "combined failed in 2: 1 iterations, 985 nodes, set 22, 0 polls";
        "pobdd failed in 2: 1 iterations, 1022 nodes, set 20, 0 polls" ];
  pin "fz42_6_fifo.pCheck_mem1_q"
    (fuzz_cone ~seed:42 ~index:6 "pCheck_mem1_q")
    ~expected:
      [ "forward proved: 2 iterations, 18901 nodes, set 264, 2 polls";
        "backward proved: 0 iterations, 515 nodes, set 18, 0 polls";
        "combined proved: 0 iterations, 4842 nodes, set 19, 0 polls";
        "pobdd proved: 2 iterations, 33685 nodes, set 171, 4 polls" ];
  (* a POBDD run cut by the node limit stops at exactly that allocation *)
  let limit = 1000 in
  let sym, run =
    bdd_work ~node_limit:limit (chip_cone "a_csr" "pNoError_0") "pobdd"
  in
  match run () with
  | exception Bdd.Node_limit ->
    Alcotest.(check int) "cut at the node limit" limit
      (Bdd.node_count (Mc.Sym.man sym))
  | Mc.Reach.Proved _ | Mc.Reach.Failed _ ->
    Alcotest.fail "pobdd: expected the node limit"

(* IC3 agrees with BDD reachability on the seeded-bug counter: same
   falsifications, and every IC3 trace replays in the simulator *)
let test_ic3_agrees_on_bug_module () =
  let leaf = Chip.Archetype.counter ~name:"ic3_cnt" ~bug:true () in
  let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
  let mdl = info.Verifiable.Transform.mdl in
  let spec =
    { Verifiable.Propgen.he = leaf.Chip.Archetype.he;
      he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  let falsified = ref 0 in
  List.iter
    (fun (_, vunit) ->
      let assumes = List.map snd (Psl.Ast.assumes vunit) in
      List.iter
        (fun (name, assert_) ->
          let bdd =
            Mc.Engine.check_property ~strategy:Mc.Engine.Bdd_forward mdl
              ~assert_ ~assumes
          in
          let ic3 =
            Mc.Engine.check_property ~strategy:Mc.Engine.Ic3 mdl ~assert_
              ~assumes
          in
          match (bdd.Mc.Engine.verdict, ic3.Mc.Engine.verdict) with
          | Mc.Engine.Failed _, Mc.Engine.Failed trace ->
            incr falsified;
            Alcotest.(check bool) (name ^ " ic3 trace replays") true
              (replay_confirms mdl assert_ assumes trace)
          | Mc.Engine.Proved, (Mc.Engine.Proved | Mc.Engine.Resource_out _) ->
            ()
          | _ -> Alcotest.failf "%s: ic3 and bdd disagree" name)
        (Psl.Ast.asserts vunit))
    (Verifiable.Propgen.all info spec);
  Alcotest.(check bool) "seeded bug falsified through ic3" true (!falsified > 0)


(* ---- random modules: symbolic engines vs explicit-state brute force ---- *)

(* a random module with [nregs] 1-bit registers and [nins] inputs; each
   register's next function and the 1-bit PROP output are random expressions
   over registers and inputs *)
let gen_random_module =
  let open QCheck.Gen in
  let gen_expr nregs nins =
    let leaf =
      oneof
        [ map (fun i -> E.var (Printf.sprintf "r%d" i)) (int_range 0 (nregs - 1));
          map (fun i -> E.var (Printf.sprintf "i%d" i)) (int_range 0 (nins - 1));
          oneofl [ E.tru; E.fls ] ]
    in
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [ (2, leaf);
              (2, map2 (fun a b -> E.(a &: b)) (self (depth - 1)) (self (depth - 1)));
              (2, map2 (fun a b -> E.(a |: b)) (self (depth - 1)) (self (depth - 1)));
              (2, map2 (fun a b -> E.(a ^: b)) (self (depth - 1)) (self (depth - 1)));
              (1, map (fun a -> E.(!:a)) (self (depth - 1)));
              (1,
               map3 (fun c a b -> E.mux c a b) (self (depth - 1))
                 (self (depth - 1)) (self (depth - 1))) ])
      3
  in
  int_range 2 4 >>= fun nregs ->
  int_range 1 2 >>= fun nins ->
  list_repeat nregs (gen_expr nregs nins) >>= fun nexts ->
  gen_expr nregs nins >>= fun prop ->
  list_repeat nregs bool >|= fun resets ->
  (nregs, nins, nexts, prop, resets)

let build_random_module (_nregs, nins, nexts, prop, resets) =
  let m = M.create "rand" in
  let m =
    List.fold_left
      (fun m i -> M.add_input m (Printf.sprintf "i%d" i) 1)
      m
      (List.init nins Fun.id)
  in
  let m =
    List.fold_left
      (fun m (i, (next, reset)) ->
        M.add_reg
          ~reset:(Bitvec.of_bool reset)
          m
          (Printf.sprintf "r%d" i)
          1 next)
      m
      (List.mapi (fun i x -> (i, x)) (List.combine nexts resets))
  in
  let m = M.add_output m "PROP" 1 in
  M.add_assign m "PROP" prop

(* explicit-state: BFS over all (state, input) successors *)
let brute_force_invariant_holds (_nregs, nins, nexts, prop, resets) =
  let eval_bit env e = Bitvec.get (E.eval ~env e) 0 in
  let env_of state input name =
    let b =
      if name.[0] = 'r' then
        state lsr int_of_string (String.sub name 1 (String.length name - 1))
        land 1
        = 1
      else
        input lsr int_of_string (String.sub name 1 (String.length name - 1))
        land 1
        = 1
    in
    Bitvec.of_bool b
  in
  let init =
    List.fold_left
      (fun acc (i, r) -> if r then acc lor (1 lsl i) else acc)
      0
      (List.mapi (fun i r -> (i, r)) resets)
  in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace seen init ();
  Queue.add init queue;
  let ok = ref true in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    for input = 0 to (1 lsl nins) - 1 do
      let env = env_of s input in
      (* PROP may read inputs through combinational logic *)
      if not (eval_bit env prop) then ok := false;
      let s' =
        List.fold_left
          (fun acc (i, next) ->
            if eval_bit env next then acc lor (1 lsl i) else acc)
          0
          (List.mapi (fun i n -> (i, n)) nexts)
      in
      if not (Hashtbl.mem seen s') then begin
        Hashtbl.replace seen s' ();
        Queue.add s' queue
      end
    done
  done;
  (!ok, Hashtbl.length seen)

let arb_random_module =
  QCheck.make
    ~print:(fun (n, i, _, _, _) -> Printf.sprintf "%d regs, %d inputs" n i)
    gen_random_module

let prop_engines_match_brute_force =
  QCheck.Test.make ~name:"all engines agree with explicit-state search"
    ~count:60 arb_random_module (fun desc ->
      let m = build_random_module desc in
      let expected_ok, reachable_count = brute_force_invariant_holds desc in
      let assert_ = Psl.Parser.fl_of_string "always PROP" in
      (* every decided engine verdict must match the brute-force one *)
      let verdict_matches strategy =
        match
          (Mc.Engine.check_property ~strategy m ~assert_ ~assumes:[])
            .Mc.Engine.verdict
        with
        | Mc.Engine.Proved -> expected_ok
        | Mc.Engine.Failed trace ->
          (not expected_ok) && replay_confirms m assert_ [] trace
        | Mc.Engine.Proved_bounded _ ->
          (* BMC at default depth 20 >= diameter of a <=16-state system *)
          expected_ok
        | Mc.Engine.Resource_out _ -> true (* k-induction may be inconclusive *)
        | Mc.Engine.Error _ -> false
      in
      let engines_ok =
        List.for_all verdict_matches
          [ Mc.Engine.Bdd_forward; Mc.Engine.Bdd_backward;
            Mc.Engine.Bdd_combined; Mc.Engine.Pobdd; Mc.Engine.Bmc;
            Mc.Engine.Kind; Mc.Engine.Ic3 ]
      in
      (* and the symbolic reachable-set size must equal the BFS count *)
      let nl = elaborated m in
      let sym = Mc.Sym.create nl in
      let man = Mc.Sym.man sym in
      let reached = Mc.Reach.reachable sym in
      let only_states =
        Bdd.exists man
          (Mc.Sym.inp_vars sym @ Mc.Sym.nxt_vars sym)
          reached
      in
      let nregs, _, _, _, _ = desc in
      let count =
        Bdd.sat_count man only_states
        /. (2.0 ** float_of_int (Bdd.nvars man - nregs))
      in
      engines_ok
      && abs_float (count -. float_of_int reachable_count) < 0.5)

(* ---- proof obligations and the structural result cache ---- *)

let counter_obligations ?(bug = false) name =
  let leaf = Chip.Archetype.counter ~name ~bug () in
  let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
  let spec =
    { Verifiable.Propgen.he = leaf.Chip.Archetype.he;
      he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  List.concat_map
    (fun (_, vunit) ->
      Mc.Obligation.of_vunit info.Verifiable.Transform.mdl vunit
        ~meta:(fun ~prop_name -> prop_name))
    (Verifiable.Propgen.all info spec)

let test_obligation_fingerprints () =
  let a = counter_obligations "ob_a" in
  let b = counter_obligations "ob_b" in
  let bugged = counter_obligations ~bug:true "ob_c" in
  let fps obs = List.map Mc.Obligation.fingerprint obs in
  List.iter
    (fun fp -> Alcotest.(check int) "digest is 32 hex chars" 32 (String.length fp))
    (fps a);
  (* structurally identical clones, names aside: same keys *)
  Alcotest.(check (list string)) "clone fingerprints agree" (fps a) (fps b);
  (* the seeded bug changes the logic, so at least one key must change *)
  Alcotest.(check bool) "bugged counter keys differ" true (fps a <> fps bugged);
  (* a different budget is a different obligation *)
  let tight =
    { Mc.Engine.default_budget with Mc.Engine.bmc_depth = 7 }
  in
  let a' = List.hd a in
  let fp_tight =
    Mc.Obligation.fingerprint { a' with Mc.Obligation.budget = tight }
  in
  Alcotest.(check bool) "budget is part of the key" true
    (fp_tight <> Mc.Obligation.fingerprint a')

let test_obligation_run_matches_engine () =
  let leaf = Chip.Archetype.counter ~name:"ob_run" ~bug:true () in
  let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
  let spec =
    { Verifiable.Propgen.he = leaf.Chip.Archetype.he;
      he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  let vunit = Verifiable.Propgen.soundness_vunit info spec in
  let tag (o : Mc.Engine.outcome) =
    match o.Mc.Engine.verdict with
    | Mc.Engine.Proved -> "proved"
    | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
    | Mc.Engine.Failed _ -> "failed"
    | Mc.Engine.Resource_out _ -> "resource"
    | Mc.Engine.Error _ -> "error"
  in
  let via_engine =
    List.map
      (fun (name, o) -> (name, tag o))
      (Mc.Engine.check_vunit info.Verifiable.Transform.mdl vunit)
  in
  let via_obligation =
    List.map
      (fun ob ->
        (ob.Mc.Obligation.meta, tag (Mc.Obligation.run ob)))
      (Mc.Obligation.of_vunit info.Verifiable.Transform.mdl vunit
         ~meta:(fun ~prop_name -> prop_name))
  in
  Alcotest.(check (list (pair string string)))
    "prepared obligations reproduce the engine facade" via_engine
    via_obligation

(* the campaign's lookup: a hit answers, a miss runs and is stored *)
let find_or_run cache ob =
  let key = Mc.Obligation.fingerprint ob in
  match Mc.Cache.find cache ~key with
  | Some o -> (o, true)
  | None ->
    let o = Mc.Obligation.run ob in
    Mc.Cache.add cache ~key o;
    (o, false)

let test_cache_dedups_clones () =
  let cache = Mc.Cache.create () in
  let run obs = List.map (find_or_run cache) obs in
  let a = counter_obligations "cache_a" in
  let first = run a in
  Alcotest.(check int) "cold run: every check is fresh" (List.length a)
    (Mc.Cache.misses cache);
  Alcotest.(check int) "cold run: no hits" 0 (Mc.Cache.hits cache);
  (* a structurally identical sibling: zero fresh engine calls *)
  let second = run (counter_obligations "cache_b") in
  Alcotest.(check int) "warm run: no new misses" (List.length a)
    (Mc.Cache.misses cache);
  Alcotest.(check int) "warm run: all hits" (List.length a)
    (Mc.Cache.hits cache);
  List.iter2
    (fun (_, hit1) (_, hit2) ->
      Alcotest.(check bool) "first run misses" false hit1;
      Alcotest.(check bool) "second run hits" true hit2)
    first second

let test_cache_persistence () =
  let cache = Mc.Cache.create () in
  let obs = counter_obligations "cache_p" in
  List.iter (fun ob -> ignore (find_or_run cache ob)) obs;
  let path = Filename.temp_file "dicheck" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mc.Cache.save cache path;
      let reloaded =
        match Mc.Cache.load path with
        | Some c -> c
        | None -> Alcotest.fail "saved cache does not load"
      in
      Alcotest.(check int) "all entries survive the round trip"
        (Mc.Cache.length cache) (Mc.Cache.length reloaded);
      List.iter
        (fun ob ->
          Alcotest.(check bool) "reloaded entry hits" true
            (snd (find_or_run reloaded ob)))
        obs;
      Alcotest.(check int) "zero fresh engine calls after reload" 0
        (Mc.Cache.misses reloaded));
  Alcotest.(check bool) "missing file loads as None" true
    (Mc.Cache.load "/nonexistent/dicheck.cache" = None)

let test_canonical_ro_causes () =
  (* the exported constants are the complete resource-out vocabulary every
     downstream consumer (campaign summaries, the metrics schema, CI
     scripts) keys on — spellings are load-bearing *)
  Alcotest.(check (list string)) "canonical order"
    [ "deadline"; "bdd-nodes"; "sat-conflicts"; "kind-inconclusive";
      "ic3-frames"; "cancelled"; "heal-exhausted" ]
    Mc.Engine.ro_causes;
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " listed") true
        (List.mem c Mc.Engine.ro_causes))
    [ Mc.Engine.ro_deadline; Mc.Engine.ro_bdd_nodes;
      Mc.Engine.ro_sat_conflicts; Mc.Engine.ro_kind_inconclusive;
      Mc.Engine.ro_cancelled; Mc.Engine.ro_ic3_frames;
      Mc.Engine.ro_heal_exhausted ];
  (* resource_cause speaks the same vocabulary *)
  let ro cause =
    { Mc.Engine.verdict = Mc.Engine.Resource_out cause; engine_used = "t";
      time_s = 0.0; iterations = 0; work_nodes = 0;
      perf = Mc.Engine.empty_perf }
  in
  List.iter
    (fun c ->
      Alcotest.(check (option string)) ("cause " ^ c) (Some c)
        (Mc.Engine.resource_cause (ro c)))
    Mc.Engine.ro_causes

let () =
  Alcotest.run "mc"
    [ ("sym",
       [ Alcotest.test_case "construction" `Quick test_sym_basics;
         Alcotest.test_case "reachable states" `Quick test_reachable_count;
         Alcotest.test_case "image/preimage duality" `Quick
           test_image_preimage_duality ]);
      ("engines",
       [ Alcotest.test_case "prove invariant" `Quick
           test_engines_prove_true_invariant;
         Alcotest.test_case "find violation" `Quick test_engines_find_violation;
         Alcotest.test_case "trace replay" `Quick test_trace_replay;
         Alcotest.test_case "assumptions" `Quick test_assumes_constrain;
         Alcotest.test_case "bmc depth" `Quick test_bmc_depth_sensitivity;
         Alcotest.test_case "bmc shortest counterexample" `Quick
           test_bmc_shortest;
         Alcotest.test_case "budget escalation" `Quick
           test_node_limit_escalation;
         Alcotest.test_case "strategy names round-trip" `Quick
           test_strategy_names_roundtrip;
         Alcotest.test_case "canonical resource-out causes" `Quick
           test_canonical_ro_causes;
         Alcotest.test_case "problem size" `Quick test_problem_size;
         Alcotest.test_case "BDD work counters" `Quick test_bdd_pinned_work ]);
      ("induction",
       [ Alcotest.test_case "k-induction basics" `Quick test_kinduction;
         Alcotest.test_case "agrees with BDD on bug modules" `Slow
           test_kinduction_agrees_on_bugs ]);
      ("ic3",
       [ Alcotest.test_case "ic3 basics" `Quick test_ic3;
         Alcotest.test_case "proves where k-induction gives up" `Quick
           test_ic3_proves_kind_inconclusive;
         Alcotest.test_case "search counters" `Quick test_ic3_pinned_search;
         Alcotest.test_case "agrees with BDD on the bugged counter" `Slow
           test_ic3_agrees_on_bug_module ]);
      ("obligation",
       [ Alcotest.test_case "structural fingerprints" `Quick
           test_obligation_fingerprints;
         Alcotest.test_case "run matches engine facade" `Quick
           test_obligation_run_matches_engine;
         Alcotest.test_case "cache dedups structural clones" `Quick
           test_cache_dedups_clones;
         Alcotest.test_case "cache persists across processes" `Quick
           test_cache_persistence ]);
      ("cross-validation",
       [ QCheck_alcotest.to_alcotest prop_engines_match_brute_force ]) ]
