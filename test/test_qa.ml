(* Tests for the differential QA layer: Bitvec/Bdd against brute-force
   references, SAT micro-fuzz against brute force, the Verilog
   print/parse round-trip on fuzzed designs, and the fuzz driver itself
   (smoke, determinism, injection/shrinking, mutation gauntlet). *)

let mask w x = x land ((1 lsl w) - 1)

(* ---- Bitvec vs the integer model (words of <= 12 bits) ---- *)

let arb_word2 =
  QCheck.make
    ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
    QCheck.Gen.(
      int_range 1 12 >>= fun w ->
      int_bound ((1 lsl w) - 1) >>= fun a ->
      int_bound ((1 lsl w) - 1) >>= fun b -> return (w, a, b))

let int_popcount x =
  let rec go n x = if x = 0 then n else go (n + 1) (x land (x - 1)) in
  go 0 x

let prop_bitvec_arith =
  QCheck.Test.make ~name:"Bitvec arithmetic matches the integer model"
    ~count:500 arb_word2 (fun (w, a, b) ->
      let bv = Bitvec.of_int ~width:w in
      Bitvec.to_int (Bitvec.add (bv a) (bv b)) = mask w (a + b)
      && Bitvec.to_int (Bitvec.sub (bv a) (bv b)) = mask w (a - b)
      && Bitvec.to_int (Bitvec.neg (bv a)) = mask w (-a)
      && Bitvec.to_int (Bitvec.succ (bv a)) = mask w (a + 1))

let prop_bitvec_logic =
  QCheck.Test.make ~name:"Bitvec logic matches the integer model" ~count:500
    arb_word2 (fun (w, a, b) ->
      let bv = Bitvec.of_int ~width:w in
      Bitvec.to_int (Bitvec.logand (bv a) (bv b)) = a land b
      && Bitvec.to_int (Bitvec.logor (bv a) (bv b)) = a lor b
      && Bitvec.to_int (Bitvec.logxor (bv a) (bv b)) = a lxor b
      && Bitvec.to_int (Bitvec.lognot (bv a)) = mask w (lnot a)
      && Bitvec.popcount (bv a) = int_popcount a
      && Bitvec.red_xor (bv a) = (int_popcount a land 1 = 1)
      && Bitvec.red_or (bv a) = (a <> 0)
      && Bitvec.red_and (bv a) = (a = mask w (-1)))

let prop_bitvec_structure =
  QCheck.Test.make ~name:"Bitvec concat/slice match the integer model"
    ~count:500 arb_word2 (fun (w, a, b) ->
      let bv = Bitvec.of_int ~width:w in
      Bitvec.to_int (Bitvec.concat (bv a) (bv b)) = (a lsl w) lor b
      && (w < 2
         || Bitvec.to_int (Bitvec.slice (bv a) ~hi:(w - 1) ~lo:1) = a lsr 1))

(* ---- Bdd vs exhaustive truth tables ---- *)

(* a function of [n <= 5] variables IS its truth table: an integer with one
   bit per assignment. Build the BDD from minterm cubes and compare against
   the table on every assignment. *)
let arb_tt =
  QCheck.make
    ~print:(fun (n, tt, tt') -> Printf.sprintf "n=%d tt=%#x tt'=%#x" n tt tt')
    QCheck.Gen.(
      int_range 1 5 >>= fun n ->
      int_bound ((1 lsl (1 lsl n)) - 1) >>= fun tt ->
      int_bound ((1 lsl (1 lsl n)) - 1) >>= fun tt' -> return (n, tt, tt'))

let bdd_of_tt man n tt =
  let f = ref (Bdd.zero man) in
  for m = 0 to (1 lsl n) - 1 do
    if tt land (1 lsl m) <> 0 then
      f :=
        Bdd.or_ man !f
          (Bdd.cube man (List.init n (fun i -> (i, m land (1 lsl i) <> 0))))
  done;
  !f

let prop_bdd_truth_table =
  QCheck.Test.make ~name:"Bdd ops match exhaustive truth tables" ~count:300
    arb_tt (fun (n, tt, tt') ->
      let man = Bdd.create ~nvars:n () in
      let f = bdd_of_tt man n tt and g = bdd_of_tt man n tt' in
      let agrees h table =
        let ok = ref true in
        for m = 0 to (1 lsl n) - 1 do
          let expect = table land (1 lsl m) <> 0 in
          if Bdd.eval man (fun i -> m land (1 lsl i) <> 0) h <> expect then
            ok := false
        done;
        !ok
      in
      let full = (1 lsl (1 lsl n)) - 1 in
      agrees f tt
      && agrees (Bdd.not_ man f) (full land lnot tt)
      && agrees (Bdd.and_ man f g) (tt land tt')
      && agrees (Bdd.or_ man f g) (tt lor tt')
      && agrees (Bdd.xor man f g) (tt lxor tt')
      && int_of_float (Bdd.sat_count man f) = int_popcount tt
      && Bdd.equal f g = (tt = tt'))

(* the 12-variable case, checked against brute force over all 4096
   assignments: the parity function, the worst case for a truth table and
   the best case for a BDD *)
let test_bdd_12var_parity () =
  let n = 12 in
  let man = Bdd.create ~nvars:n () in
  let f =
    List.fold_left
      (fun acc i -> Bdd.xor man acc (Bdd.var man i))
      (Bdd.zero man)
      (List.init n (fun i -> i))
  in
  for m = 0 to (1 lsl n) - 1 do
    let expect = int_popcount m land 1 = 1 in
    if Bdd.eval man (fun i -> m land (1 lsl i) <> 0) f <> expect then
      Alcotest.failf "parity BDD wrong on assignment %#x" m
  done;
  Alcotest.(check int)
    "sat_count" (1 lsl (n - 1))
    (int_of_float (Bdd.sat_count man f))

(* ---- SAT micro-fuzz: solver vs brute force ---- *)

let arb_cnf =
  let print (nvars, clauses) =
    Printf.sprintf "nvars=%d clauses=[%s]" nvars
      (String.concat "; "
         (List.map
            (fun c -> String.concat "," (List.map string_of_int c))
            clauses))
  in
  QCheck.make ~print
    QCheck.Gen.(
      int_range 1 20 >>= fun nvars ->
      int_range 0 30 >>= fun nclauses ->
      list_repeat nclauses
        ( int_range 1 3 >>= fun len ->
          list_repeat len
            ( int_range 1 nvars >>= fun v ->
              bool >>= fun s -> return (if s then v else -v) ) )
      >>= fun clauses -> return (nvars, clauses))

let brute_force_sat nvars clauses =
  let rec go m =
    if m = 1 lsl nvars then false
    else if Oneshot.eval clauses (fun v -> m land (1 lsl (v - 1)) <> 0) then
      true
    else go (m + 1)
  in
  go 0

let prop_sat_differential =
  QCheck.Test.make ~name:"solver agrees with brute-force enumeration"
    ~count:300 arb_cnf (fun (nvars, clauses) ->
      match fst (Oneshot.solve ~nvars clauses) with
      | Solver.Sat model ->
        (* the model must actually satisfy the formula, and when the space
           is small enough to enumerate, brute force must agree *)
        Oneshot.eval clauses (fun v -> model.(v - 1))
        && (nvars > 12 || brute_force_sat nvars clauses)
      | Solver.Unsat -> nvars > 12 || not (brute_force_sat nvars clauses)
      | Solver.Unknown -> false)

(* ---- Verilog round-trip on fuzzed designs ---- *)

let test_verilog_roundtrip () =
  for index = 0 to 11 do
    let case = Qa.Gen.case_of ~seed:11 ~index in
    match Qa.Differential.roundtrip case.Qa.Gen.info.Verifiable.Transform.mdl with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: %s" case.Qa.Gen.id m
  done

(* ---- generator determinism and shrink soundness ---- *)

let test_gen_deterministic () =
  let stream seed = List.init 50 (fun index -> Qa.Gen.params_of ~seed ~index) in
  Alcotest.(check bool) "same seed, same stream" true (stream 42 = stream 42);
  Alcotest.(check bool)
    "different seeds differ" false
    (stream 42 = stream 43)

let test_shrink_strictly_smaller () =
  for index = 0 to 19 do
    let p = Qa.Gen.params_of ~seed:5 ~index in
    List.iter
      (fun (c : Qa.Gen.params) ->
        let size (q : Qa.Gen.params) =
          (q.Qa.Gen.width, q.Qa.Gen.depth, q.Qa.Gen.variant)
        in
        if size c >= size p then
          Alcotest.failf "candidate %s not smaller than %s"
            (Qa.Gen.describe c) (Qa.Gen.describe p);
        (* every candidate must still build *)
        ignore (Qa.Gen.build ~id:"shrinkable" c))
      (Qa.Gen.shrink_candidates p)
  done

let test_every_template_builds () =
  List.iter
    (fun t ->
      (* min and max of each template's envelope, via the seeded stream *)
      let built = ref 0 in
      let index = ref 0 in
      while !built < 2 && !index < 200 do
        let p = Qa.Gen.params_of ~seed:1 ~index:!index in
        if p.Qa.Gen.template = t then begin
          let case =
            Qa.Gen.build ~id:("t_" ^ Qa.Gen.template_name t) p
          in
          let props =
            Verifiable.Propgen.all case.Qa.Gen.info case.Qa.Gen.spec
          in
          Alcotest.(check bool)
            (Qa.Gen.template_name t ^ " has obligations")
            true (props <> []);
          incr built
        end;
        incr index
      done;
      if !built = 0 then
        Alcotest.failf "seeded stream never produced template %s"
          (Qa.Gen.template_name t))
    Qa.Gen.templates

(* ---- the fuzz driver ---- *)

let small_config =
  { Qa.Fuzz.default_config with seed = 7; count = 3; gauntlet = false }

let test_fuzz_smoke () =
  let s = Qa.Fuzz.run { small_config with gauntlet = true } in
  Alcotest.(check int) "all cases run" 3 s.Qa.Fuzz.cases_run;
  Alcotest.(check bool) "no discrepancies" true (Qa.Fuzz.ok s);
  Alcotest.(check bool) "obligations checked" true (s.Qa.Fuzz.obligations > 0);
  Alcotest.(check bool)
    "every mutant killed" true
    (List.for_all (fun (_, d, t) -> d = t) s.Qa.Fuzz.kill_table)

let test_fuzz_deterministic () =
  let summarize (s : Qa.Fuzz.summary) =
    ( s.Qa.Fuzz.cases_run,
      s.Qa.Fuzz.obligations,
      s.Qa.Fuzz.engine_runs,
      List.length s.Qa.Fuzz.discrepancies,
      s.Qa.Fuzz.kill_table )
  in
  Alcotest.(check bool)
    "two runs, same verdicts" true
    (summarize (Qa.Fuzz.run small_config)
    = summarize (Qa.Fuzz.run small_config))

let test_fuzz_injection_shrinks () =
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qa-fuzz-inject-%d" (Unix.getpid ()))
  in
  let s =
    Qa.Fuzz.run { small_config with count = 2; inject = Some 1; out_dir }
  in
  Alcotest.(check bool) "injection fails the run" false (Qa.Fuzz.ok s);
  Alcotest.(check bool)
    "discrepancy is the injected one" true
    (List.for_all
       (fun (d : Qa.Differential.discrepancy) ->
         d.Qa.Differential.kind = Qa.Differential.Injected)
       s.Qa.Fuzz.discrepancies
    && s.Qa.Fuzz.discrepancies <> []);
  match s.Qa.Fuzz.shrunk with
  | [ sh ] ->
    (* the injected failure is parameter-independent, so greedy shrinking
       must reach the template's minimum envelope *)
    Alcotest.(check bool)
      "shrunk to a smaller record" true
      (sh.Qa.Fuzz.to_params.Qa.Gen.width
       <= sh.Qa.Fuzz.from_params.Qa.Gen.width
      && sh.Qa.Fuzz.to_params.Qa.Gen.variant = 0);
    Alcotest.(check int) "three reproducer files" 3
      (List.length sh.Qa.Fuzz.files);
    List.iter
      (fun f ->
        Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f))
      sh.Qa.Fuzz.files;
    let json_file =
      List.find (fun f -> Filename.check_suffix f ".json") sh.Qa.Fuzz.files
    in
    let ic = open_in json_file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Obs.Json.parse src with
     | Ok j ->
       Alcotest.(check (option string))
         "reproducer schema"
         (Some "dicheck-fuzz-failure-v1")
         (Option.bind (Obs.Json.member "schema" j) Obs.Json.to_str)
     | Error m -> Alcotest.failf "reproducer JSON invalid: %s" m)
  | shs -> Alcotest.failf "expected one shrunk case, got %d" (List.length shs)

let test_mutation_gauntlet_kills_all () =
  (* one small host per Table 3 class; every one must die to its class *)
  let host template width =
    { Qa.Gen.template; width; depth = 1; variant = 5; mutation = None }
  in
  let hosts =
    [ host Qa.Gen.Fsm_ctrl 4; host Qa.Gen.Counter 2; host Qa.Gen.Csr 2;
      host Qa.Gen.Macro_if 2; host Qa.Gen.Datapath 2; host Qa.Gen.Decoder 3 ]
  in
  let seen = ref [] in
  List.iter
    (fun p ->
      let r =
        Qa.Mutate.run_case p ~id:("g_" ^ Qa.Gen.template_name p.Qa.Gen.template)
      in
      List.iter
        (fun (k : Qa.Mutate.kill) ->
          seen := k.Qa.Mutate.bug :: !seen;
          if not k.Qa.Mutate.detected then
            Alcotest.failf "mutant %s escaped: %s"
              (Chip.Bugs.name k.Qa.Mutate.bug)
              (Option.value ~default:"?" k.Qa.Mutate.detail);
          Alcotest.(check bool)
            (Chip.Bugs.name k.Qa.Mutate.bug ^ " killed by its class")
            true
            (k.Qa.Mutate.cls = Chip.Bugs.property_class k.Qa.Mutate.bug))
        r.Qa.Mutate.kills)
    hosts;
  List.iter
    (fun b ->
      Alcotest.(check bool)
        ("gauntlet covers " ^ Chip.Bugs.name b)
        true (List.mem b !seen))
    Chip.Bugs.all

(* ---- exhaustive simulation in lanes vs one sequence at a time ---- *)

(* the sweep the lanes replaced: each sequence through the reference
   interpreter alone, with the genuine-violation rule spelled out *)
let reference_sweep (nl : Rtl.Netlist.t) ~ok ~con =
  let inputs = nl.Rtl.Netlist.inputs in
  let b = List.fold_left (fun a (_, w) -> a + w) 0 inputs in
  let depth = max 1 (10 / b) in
  let total = 1 lsl (b * depth) in
  let sim = Ref_sim.create nl in
  let rec go n =
    if n = total then (total, None)
    else begin
      Ref_sim.reset sim;
      let clean = ref true and fail = ref None in
      for c = 0 to depth - 1 do
        ignore
          (List.fold_left
             (fun off (name, w) ->
               Ref_sim.drive sim name
                 (Bitvec.init w (fun i -> (n lsr (off + i)) land 1 = 1));
               off + w)
             (c * b) inputs);
        Ref_sim.settle sim;
        clean := !clean && Ref_sim.peek_bit sim con;
        if !clean && (not (Ref_sim.peek_bit sim ok)) && !fail = None then
          fail := Some c;
        Ref_sim.clock sim
      done;
      match !fail with Some c -> (n + 1, Some c) | None -> go (n + 1)
    end
  in
  (total, depth, go 0)

let check_sweep what m =
  let nl =
    Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:m.Rtl.Mdl.name
  in
  let total, depth, (expect_n, expect_fail) =
    reference_sweep nl ~ok:"ok" ~con:"con"
  in
  Obs.Telemetry.start ();
  let got =
    Qa.Differential.exhaustive_sim nl ~ok_signal:"ok"
      ~constraint_signal:(Some "con")
  in
  let report = Obs.Telemetry.stop () in
  Alcotest.(check (option (triple int int (option int))))
    (what ^ ": total, depth and first failure")
    (Some (total, depth, expect_fail)) got;
  Alcotest.(check int)
    (what ^ ": qa.sim_sequences")
    expect_n
    (Obs.Telemetry.counter report "qa.sim_sequences");
  Alcotest.(check int)
    (what ^ ": one sim/sweep span")
    1
    (List.length
       (List.filter
          (fun (sp : Obs.Telemetry.span) ->
            sp.Obs.Telemetry.cat = "sim" && sp.Obs.Telemetry.name = "sweep")
          report.Obs.Telemetry.spans));
  (expect_n, expect_fail)

(* a module with [inputs], the outputs [ok] and [con], and whatever else
   [body] declares *)
let sweep_design inputs body ~ok ~con =
  let module M = Rtl.Mdl in
  let m =
    List.fold_left (fun m (name, w) -> M.add_input m name w) (M.create "sweep")
      inputs
  in
  let m = body (M.add_output (M.add_output m "ok" 1) "con" 1) in
  M.add_assign (M.add_assign m "ok" ok) "con" con

let test_sweep_lane_boundaries () =
  let module E = Rtl.Expr in
  let module M = Rtl.Mdl in
  let is name w n = E.(var name ==: of_int ~width:w n) in
  (* 5 input bits, 2 cycles, 1024 sequences; sequence n drives v = n mod 32,
     then v = n / 32. The first genuine failure is v = 8 then 6: sequence
     200, lane 11 of the fourth batch. Sequence 100 (v = 4 then 3) violates
     ok too, but only after breaking the constraint. *)
  let previous m =
    let m = M.add_wire m "v" 5 in
    let m = M.add_assign m "v" E.(concat (var "Y") (var "X")) in
    M.add_reg m "p" 5 (E.var "v")
  in
  Alcotest.(check (pair int (option int)))
    "sequence 200 fails at cycle 1" (201, Some 1)
    (check_sweep "later batch"
       (sweep_design [ ("X", 3); ("Y", 2) ] previous
          ~ok:
            E.(!:((is "p" 5 8 &: is "v" 5 6) |: (is "p" 5 4 &: is "v" 5 3)))
          ~con:E.(!:(is "v" 5 4))));
  (* 10 input bits, 1 cycle: 1024 sequences are 16 full batches and 16
     lanes of a seventeenth *)
  let a10 ok = sweep_design [ ("A", 10) ] Fun.id ~ok ~con:E.tru in
  Alcotest.(check (pair int (option int)))
    "sequence 1020 fails in the last, partial batch" (1021, Some 0)
    (check_sweep "partial batch" (a10 E.(!:(is "A" 10 1020))));
  Alcotest.(check (pair int (option int)))
    "no failure counts the 1024 sequences, not 17 batches" (1024, None)
    (check_sweep "no failure" (a10 E.tru))

let () =
  Alcotest.run "qa"
    [ ( "brute-force",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bitvec_arith; prop_bitvec_logic; prop_bitvec_structure;
            prop_bdd_truth_table; prop_sat_differential ]
        @ [ Alcotest.test_case "bdd 12-var parity" `Quick
              test_bdd_12var_parity ] );
      ( "generator",
        [ Alcotest.test_case "verilog roundtrip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "shrink candidates" `Quick
            test_shrink_strictly_smaller;
          Alcotest.test_case "every template builds" `Quick
            test_every_template_builds ] );
      ( "fuzz",
        [ Alcotest.test_case "smoke" `Quick test_fuzz_smoke;
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "injection shrinks" `Quick
            test_fuzz_injection_shrinks;
          Alcotest.test_case "mutation gauntlet" `Quick
            test_mutation_gauntlet_kills_all;
          Alcotest.test_case "exhaustive sweep lane boundaries" `Quick
            test_sweep_lane_boundaries ] ) ]
