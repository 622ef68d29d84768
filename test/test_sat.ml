(* CDCL solver and Tseitin encoder: crafted instances, misuse of the
   incremental interface, the order in which the decision queue hands out
   fresh variables, the failed-assumption core, a solver on a released
   solver's storage, instances large enough to grow every buffer, random
   CNFs checked against brute force, equisatisfiability of the encoding,
   and the exact search counters of two BMC runs and of the decision queue
   within one solve and across five. *)

module X = Rtl.Bexpr


(* --- crafted instances --- *)

let solve nvars clauses = fst (Oneshot.solve ~nvars clauses)

let is_sat = function Solver.Sat _ -> true | Solver.Unsat | Solver.Unknown -> false
let is_unsat = function Solver.Unsat -> true | Solver.Sat _ | Solver.Unknown -> false

let test_trivial () =
  Alcotest.(check bool) "empty cnf sat" true (is_sat (solve 0 []));
  Alcotest.(check bool) "unit sat" true (is_sat (solve 1 [ [ 1 ] ]));
  Alcotest.(check bool) "unit conflict" true
    (is_unsat (solve 1 [ [ 1 ]; [ -1 ] ]));
  Alcotest.(check bool) "empty clause" true
    (is_unsat (solve 1 [ [] ]));
  Alcotest.(check bool) "tautology dropped" true
    (is_sat (solve 1 [ [ 1; -1 ] ]))

let test_model_valid () =
  let c = [ [ 1; 2 ]; [ -1; 3 ]; [ -3; -2; 4 ]; [ -4; 1 ] ] in
  match solve 4 c with
  | Solver.Sat model ->
    Alcotest.(check bool) "model satisfies" true
      (Oneshot.eval c (fun v -> model.(v - 1)))
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected sat"

let test_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT *)
  let var p h = (p * 2) + h + 1 in
  let clauses =
    (* every pigeon sits somewhere *)
    List.init 3 (fun p -> [ var p 0; var p 1 ])
    (* no two pigeons share a hole *)
    @ List.concat_map
        (fun h ->
          [ [ -var 0 h; -var 1 h ]; [ -var 0 h; -var 2 h ];
            [ -var 1 h; -var 2 h ] ])
        [ 0; 1 ]
  in
  Alcotest.(check bool) "php(3,2) unsat" true
    (is_unsat (solve 6 clauses))

let test_xor_chain () =
  (* x1 xor x2 xor ... xor x5 = 1 and all equal: unsat for even weight mix *)
  let eq a b = [ [ -a; b ]; [ a; -b ] ] in
  let clauses = eq 1 2 @ eq 2 3 @ [ [ 1; 2; 3 ]; [ -1; -2; -3 ] ] in
  (* all-equal plus "not all equal" *)
  Alcotest.(check bool) "equality chain conflict" true
    (is_unsat (solve 3 clauses))

let test_conflict_budget () =
  (* php(5,4) is small but needs some search; budget of 1 conflict gives up *)
  let pigeons = 5 and holes = 4 in
  let var p h = (p * holes) + h + 1 in
  let clauses =
    List.init pigeons (fun p -> List.init holes (fun h -> var p h))
    @ List.concat
        (List.concat
           (List.init holes (fun h ->
                List.init pigeons (fun p1 ->
                    List.filteri (fun p2 _ -> p2 > p1)
                      (List.init pigeons (fun p2 -> [ -var p1 h; -var p2 h ]))))))
  in
  let nvars = pigeons * holes in
  (match fst (Oneshot.solve ~max_conflicts:1 ~nvars clauses) with
   | Solver.Unknown -> ()
   | Solver.Unsat -> () (* allowed: solved before the budget *)
   | Solver.Sat _ -> Alcotest.fail "php(5,4) cannot be sat");
  Alcotest.(check bool) "php(5,4) unsat with full budget" true
    (is_unsat (solve nvars clauses))

(* --- incremental use: bad input and a search cut short --- *)

let test_literal_zero_rejected () =
  let t = Solver.create () in
  Solver.add_clause t [ 1; 2 ];
  Alcotest.check_raises "assumption 0"
    (Invalid_argument "Solver.solve_assuming: 0 is not a DIMACS literal")
    (fun () -> ignore (Solver.solve_assuming t [ 1; 0 ]));
  Alcotest.check_raises "clause literal 0"
    (Invalid_argument "Solver.add_clause: 0 is not a DIMACS literal")
    (fun () -> Solver.add_clause t [ 0 ]);
  Alcotest.check_raises "slice literal 0"
    (Invalid_argument "Solver.add_clause_slice: 0 is not a DIMACS literal")
    (fun () -> Solver.add_clause_slice t [| 3; 0; 4 |] 0 3);
  Alcotest.check_raises "slice past the buffer"
    (Invalid_argument "Solver.add_clause_slice: not a slice of the buffer")
    (fun () -> Solver.add_clause_slice t [| 3; 4 |] 1 2);
  (* nothing of the rejected calls is left behind: [-1], taken from the
     middle of a buffer, is a root unit *)
  Solver.add_clause_slice t [| 0; -1; 0 |] 1 1;
  match Solver.solve_assuming t [] with
  | Solver.Sat m ->
    Alcotest.(check bool) "same model as a fresh solver" true
      ((not m.(0)) && m.(1))
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "{1 v 2, -1} is sat"

(* A long implication-free chain: every other variable is a decision, so
   the search is still running when [should_stop] is first polled. *)
let test_stop_exception_returns_to_root () =
  let n = 4000 in
  let t = Solver.create () in
  for v = 1 to n - 1 do
    Solver.add_clause t [ v; v + 1 ]
  done;
  Alcotest.check_raises "stop hook exception escapes" Exit (fun () ->
      ignore (Solver.solve_assuming ~should_stop:(fun () -> raise Exit) t []));
  (* variable 1 was decided false; a root unit must not be read against
     that decision *)
  Solver.add_clause t [ 1 ];
  match Solver.solve_assuming t [] with
  | Solver.Sat m -> Alcotest.(check bool) "unit holds" true m.(0)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "the chain is sat"

(* The decision queue's two promises, read off the models: a fresh solver
   decides the lowest index first, and variables first seen after a solve
   are decided at the next solve before the older ones, the lowest index
   first. A decision takes the saved phase, false for a variable never
   assigned. *)
let test_fresh_variables_first () =
  let model t =
    match Solver.solve_assuming t [] with
    | Solver.Sat m -> Array.to_list m
    | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected sat"
  in
  let t = Solver.create () in
  Solver.add_clause t [ 1; 2 ];
  (* x1 is decided false and x2 follows *)
  Alcotest.(check (list bool)) "a fresh solver decides x1 first"
    [ false; true ] (model t);
  Solver.add_clause t [ 1; 3 ];
  Solver.add_clause t [ 3; 4 ];
  (* x3 is decided false, x1 and x4 follow, and x2 keeps its phase; had x1
     come first, its saved phase would have made x3 true *)
  Alcotest.(check (list bool)) "the new variables are decided first"
    [ true; true; false; true ] (model t)

(* --- the failed-assumption core --- *)

let test_core_edge_cases () =
  let core_of t assumptions =
    match Solver.solve_assuming t assumptions with
    | Solver.Unsat -> List.sort compare (Solver.failed_assumptions t)
    | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected unsat"
  in
  let t = Solver.create () in
  Solver.add_clause t [ 1; 2 ];
  Solver.add_clause t [ -1 ];
  Alcotest.(check (list int)) "complementary assumptions" [ -3; 3 ]
    (core_of t [ 2; 3; -3 ]);
  Alcotest.(check (list int)) "an assumption false at the root" [ 1 ]
    (core_of t [ 2; 1 ]);
  Alcotest.(check (list int)) "only the assumptions the refutation used"
    [ -2 ] (core_of t [ 3; -2; 4 ]);
  let t = Solver.create () in
  Solver.add_clause t [ 1 ];
  Solver.add_clause t [ -1 ];
  Alcotest.(check (list int)) "a database contradictory at intake" []
    (core_of t [ 2; 3 ]);
  let t = Solver.create () in
  List.iter (Solver.add_clause t)
    [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ];
  Alcotest.(check (list int)) "a database the search refutes" []
    (core_of t [ 3 ]);
  (* a sat answer in between clears the core *)
  let t = Solver.create () in
  Solver.add_clause t [ -1; -2 ];
  Alcotest.(check (list int)) "core of the first call" [ 1; 2 ]
    (core_of t [ 1; 2 ]);
  (match Solver.solve_assuming t [ 1 ] with
   | Solver.Sat _ -> ()
   | Solver.Unsat | Solver.Unknown -> Alcotest.fail "{-1 v -2} with 1 is sat");
  Alcotest.(check (list int)) "no core after a sat answer" []
    (Solver.failed_assumptions t)

(* Random CNFs solved under several assumption lists in turn on one solver,
   repeats and complementary pairs included: every Unsat core is a subset of
   its call's assumptions, and the CNF plus the core as units is unsat. *)
let arb_core_instance =
  let open QCheck.Gen in
  let gen =
    int_range 1 8 >>= fun nvars ->
    let lit =
      int_range 1 nvars >>= fun v -> map (fun b -> if b then v else -v) bool
    in
    int_range 0 30 >>= fun nclauses ->
    list_repeat nclauses (int_range 1 3 >>= fun len -> list_repeat len lit)
    >>= fun clauses ->
    int_range 1 4 >>= fun nsets ->
    list_repeat nsets (int_range 0 6 >>= fun n -> list_repeat n lit)
    >|= fun sets -> (nvars, clauses, sets)
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  QCheck.make
    ~print:(fun (nvars, clauses, sets) ->
      Printf.sprintf "nvars=%d clauses=%s sets=%s" nvars
        (String.concat ";" (List.map ints clauses))
        (String.concat ";" (List.map ints sets)))
    gen

let prop_core_refutes =
  QCheck.Test.make ~name:"the Unsat core is a refuting subset" ~count:500
    arb_core_instance (fun (nvars, clauses, sets) ->
      let t = Solver.create () in
      List.iter (Solver.add_clause t) clauses;
      List.for_all
        (fun assumptions ->
          match Solver.solve_assuming t assumptions with
          | Solver.Sat _ | Solver.Unknown -> true
          | Solver.Unsat ->
            let core = Solver.failed_assumptions t in
            List.for_all (fun l -> List.mem l assumptions) core
            && is_unsat
                 (solve nvars (clauses @ List.map (fun l -> [ l ]) core)))
        sets)

(* --- growth: long clauses, many variables, long learnt clauses --- *)

let rand_lit rng nvars =
  let v = 1 + Random.State.int rng nvars in
  if Random.State.bool rng then v else -v

(* Clauses of 100+ literals (with repeats) added between solves of one
   solver. Assuming every literal of the newest clause false is unsat;
   assuming all but one false is answered as a fresh solver answers it. *)
let test_long_clauses_incremental () =
  let rng = Random.State.make [| 11 |] in
  let nvars = 400 in
  let t = Solver.create () in
  let clauses = ref [] in
  for _ = 1 to 12 do
    let vars = Array.init nvars (fun i -> i + 1) in
    for i = nvars - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = vars.(i) in
      vars.(i) <- vars.(j);
      vars.(j) <- x
    done;
    let len = 100 + Random.State.int rng 100 in
    let lits =
      List.init len (fun i ->
          if Random.State.bool rng then vars.(i) else -vars.(i))
    in
    let clause = lits @ List.filteri (fun i _ -> i < 5) lits in
    Solver.add_clause t clause;
    clauses := clause :: !clauses;
    let falsified = List.map (fun l -> -l) lits in
    Alcotest.(check bool) "newest clause falsified" true
      (is_unsat (Solver.solve_assuming t falsified));
    let assumptions = List.tl falsified in
    let units = List.map (fun l -> [ l ]) assumptions in
    let whole = units @ !clauses in
    match (Solver.solve_assuming t assumptions, solve nvars whole) with
    | Solver.Sat m, Solver.Sat _ ->
      Alcotest.(check bool) "model satisfies clauses and assumptions" true
        (Oneshot.eval whole (fun v -> m.(v - 1)))
    | Solver.Unsat, Solver.Unsat -> ()
    | _ -> Alcotest.fail "incremental and fresh answers differ"
  done

(* Random 3-SAT at clause ratio 4.2 over a planted assignment: every
   clause keeps one literal the assignment makes true. *)
let test_planted_3sat () =
  let rng = Random.State.make [| 2004 |] in
  for _ = 1 to 3 do
    let nvars = 200 in
    let planted = Array.init nvars (fun _ -> Random.State.bool rng) in
    let holds l = planted.(abs l - 1) = (l > 0) in
    let rec clause () =
      let c = List.init 3 (fun _ -> rand_lit rng nvars) in
      if List.exists holds c then c else clause ()
    in
    let c = List.init (42 * nvars / 10) (fun _ -> clause ()) in
    match solve nvars c with
    | Solver.Sat m ->
      Alcotest.(check bool) "model satisfies" true
        (Oneshot.eval c (fun v -> m.(v - 1)))
    | Solver.Unsat | Solver.Unknown -> Alcotest.fail "planted 3-SAT is sat"
  done

(* php(pigeons, holes) over variables base+1 .. base+pigeons*holes: every
   pigeon in a hole, no two pigeons in one hole *)
let php_clauses ?(base = 0) pigeons holes =
  let var p h = base + (p * holes) + h + 1 in
  List.init pigeons (fun p -> List.init holes (var p))
  @ List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)

let test_pigeonhole_8_7 () =
  Alcotest.(check bool) "php(8,7) unsat" true
    (is_unsat (solve 56 (php_clauses 8 7)))

(* --- the search itself, pinned --- *)

let row (st : Solver.stats) =
  [ st.decisions; st.conflicts; st.propagations; st.restarts; st.learned ]

(* A solver on a released solver's storage answers as a fresh one. The
   released solver has grown past 256 variables and kept assignments,
   activities, phases and learnt clauses; the same calls, php(5,4) behind
   an activation literal asked three ways, then go to a solver on that
   storage and to one built from nothing, and every answer, core and
   search counter must agree. *)
let test_released_storage () =
  let used = Solver.create () in
  List.iter (Solver.add_clause used) (php_clauses 8 7);
  for v = 57 to 299 do
    Solver.add_clause used [ v; v + 1 ]
  done;
  ignore (Solver.solve_assuming used [ -57 ]);
  Solver.release used;
  let recycled = Solver.create () in
  let fresh = Solver.create () in
  let transcript t =
    List.iter
      (fun c -> Solver.add_clause t (-1 :: c))
      (php_clauses ~base:1 5 4);
    List.map
      (fun assumptions ->
        let r, st = Solver.solve_assuming_stats t assumptions in
        let answer =
          match r with
          | Solver.Sat m ->
            String.init (Array.length m) (fun i -> if m.(i) then '1' else '0')
          | Solver.Unsat -> "unsat"
          | Solver.Unknown -> "unknown"
        in
        Printf.sprintf "%s core=[%s] stats=[%s]" answer
          (String.concat ";"
             (List.map string_of_int (Solver.failed_assumptions t)))
          (String.concat ";" (List.map string_of_int (row st))))
      [ [ 1 ]; []; [ 1 ]; [ -1; 2 ] ]
  in
  Alcotest.(check (list string)) "same answers, cores and counters"
    (transcript fresh) (transcript recycled)

(* Two seeded-chip cones through incremental BMC to depth 20, each a
   sequence of solves on one live solver: one proved to the bound (with
   restarts), one violated. Any change to watch order, learnt-clause
   literal order or the decision heuristic moves these counters. *)
let test_pinned_bmc_search () =
  let works =
    Core.Campaign.work_items (Chip.Generator.generate ~with_bugs:true ())
  in
  let check mname prop ~violation (expected : Solver.stats) =
    let w =
      List.find
        (fun (w : Core.Campaign.work) ->
          w.Core.Campaign.w_mdl.Rtl.Mdl.name = mname
          && w.Core.Campaign.w_prop_name = prop)
        works
    in
    let { Mc.Obligation.nl; ok_signal; constraint_signal; _ } =
      Mc.Obligation.prepare w.Core.Campaign.w_mdl
        ~assert_:w.Core.Campaign.w_assert ~assumes:w.Core.Campaign.w_assumes
        ~meta:()
    in
    let found, (s : Mc.Bmc.stats) =
      match Mc.Bmc.check ?constraint_signal nl ~ok_signal ~depth:20 with
      | Mc.Bmc.No_violation_upto (_, s) -> (false, s)
      | Mc.Bmc.Violation (_, s) -> (true, s)
      | Mc.Bmc.Inconclusive _ -> Alcotest.fail "bmc inconclusive"
    in
    let label = mname ^ "." ^ prop in
    Alcotest.(check bool) (label ^ " verdict") violation found;
    Alcotest.(check (list int)) (label ^ " sat stats") (row expected)
      (row s.Mc.Bmc.sat)
  in
  check "E_leaf00" "pNoError_0" ~violation:false
    { decisions = 18490; conflicts = 1900; propagations = 126799;
      restarts = 6; learned = 1880 };
  check "e_dec0" "pNoError_0" ~violation:true
    { decisions = 200; conflicts = 73; propagations = 4538; restarts = 0;
      learned = 73 }

(* The decision queue within one solve and across solves. php(8,7) alone
   takes thousands of conflicts, each moving the variables its analysis
   touched to the front. Five guarded copies of it on one persistent
   solver, every clause added before the first solve, are then solved one
   after another, each solve starting from the queue the earlier ones
   left. *)
let test_pinned_queue () =
  let _, st = Oneshot.solve ~nvars:56 (php_clauses 8 7) in
  Alcotest.(check (list int)) "php(8,7) sat stats"
    [ 10450; 8968; 109337; 9; 8967 ] (row st);
  (* copy c on variables (4-c)*57+1 .. +56, each clause guarded by -a_c,
     a_c = (4-c)*57+57; every clause first, then one solve per copy *)
  let t = Solver.create () in
  let guard c = ((4 - c) * 57) + 57 in
  for c = 0 to 4 do
    List.iter
      (fun clause -> Solver.add_clause t (clause @ [ -guard c ]))
      (php_clauses ~base:((4 - c) * 57) 8 7)
  done;
  let total = ref Solver.zero_stats in
  for c = 0 to 4 do
    let r, st = Solver.solve_assuming_stats t [ guard c ] in
    Alcotest.(check bool) (Printf.sprintf "copy %d unsat" c) true (is_unsat r);
    total := Solver.add_stats !total st
  done;
  Alcotest.(check (list int)) "five copies: decisions to restarts"
    [ 43779; 36541; 462692; 41 ]
    (List.filteri (fun i _ -> i < 4) (row !total))

(* --- random CNFs vs brute force --- *)

let arb_cnf =
  let open QCheck.Gen in
  let gen =
    int_range 1 6 >>= fun nvars ->
    int_range 0 18 >>= fun nclauses ->
    let lit = int_range 1 nvars >>= fun v -> map (fun b -> if b then v else -v) bool in
    list_repeat nclauses (int_range 1 3 >>= fun len -> list_repeat len lit)
    >|= fun clauses -> (nvars, clauses)
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  QCheck.make
    ~print:(fun (nvars, clauses) ->
      Printf.sprintf "nvars=%d clauses=%s" nvars
        (String.concat ";" (List.map ints clauses)))
    gen

let brute_force_sat nvars clauses =
  let rec try_mask mask =
    if mask >= 1 lsl nvars then false
    else if Oneshot.eval clauses (fun v -> mask lsr (v - 1) land 1 = 1) then
      true
    else try_mask (mask + 1)
  in
  try_mask 0

let prop_solver_correct =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:500 arb_cnf
    (fun (nvars, clauses) ->
      match solve nvars clauses with
      | Solver.Sat model ->
        Oneshot.eval clauses (fun v -> model.(v - 1))
      | Solver.Unsat -> not (brute_force_sat nvars clauses)
      | Solver.Unknown -> false)

(* --- Tseitin --- *)

let rec gen_bexpr_depth depth st =
  let open QCheck.Gen in
  if depth = 0 then map (fun i -> X.var i) (int_range 0 4) st
  else
    frequency
      [ (2, map (fun i -> X.var i) (int_range 0 4));
        (2,
         map2 X.and_ (gen_bexpr_depth (depth - 1)) (gen_bexpr_depth (depth - 1)));
        (2, map2 X.or_ (gen_bexpr_depth (depth - 1)) (gen_bexpr_depth (depth - 1)));
        (2, map2 X.xor (gen_bexpr_depth (depth - 1)) (gen_bexpr_depth (depth - 1)));
        (1, map X.not_ (gen_bexpr_depth (depth - 1)));
        (1,
         map3 X.ite
           (gen_bexpr_depth (depth - 1))
           (gen_bexpr_depth (depth - 1))
           (gen_bexpr_depth (depth - 1))) ]
      st

let arb_bexpr =
  QCheck.make ~print:(Format.asprintf "%a" X.pp) (gen_bexpr_depth 4)

(* asserting e must be satisfiable exactly when e is not constant-false,
   and any model must make e true; the clauses stream into a live solver,
   as they do in the model checkers *)
let prop_tseitin_equisat =
  QCheck.Test.make ~name:"Tseitin encoding is equisatisfiable" ~count:300
    arb_bexpr (fun e ->
      let solver = Solver.create () in
      let ctx = Tseitin.create ~on_clause:(Solver.add_clause solver) in
      let inputs = Array.init 5 (fun _ -> Tseitin.fresh_var ctx) in
      let lit = Tseitin.lit_of_bexpr ctx (fun v -> inputs.(v)) e in
      Tseitin.assert_lit ctx lit;
      let brute_sat =
        let rec try_mask mask =
          if mask >= 32 then false
          else if X.eval (fun v -> mask lsr v land 1 = 1) e then true
          else try_mask (mask + 1)
        in
        try_mask 0
      in
      match Solver.solve_assuming solver [] with
      | Solver.Sat model ->
        (* an input in no clause is unconstrained; the solver never saw it *)
        let assign v =
          let i = inputs.(v) - 1 in
          i < Array.length model && model.(i)
        in
        brute_sat && X.eval assign e
      | Solver.Unsat -> not brute_sat
      | Solver.Unknown -> false)


let () =
  Alcotest.run "sat"
    [ ("crafted",
       [ Alcotest.test_case "trivial" `Quick test_trivial;
         Alcotest.test_case "model validity" `Quick test_model_valid;
         Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
         Alcotest.test_case "xor chain" `Quick test_xor_chain;
         Alcotest.test_case "conflict budget" `Quick test_conflict_budget ]);
      ("incremental",
       [ Alcotest.test_case "literal 0 rejected" `Quick
           test_literal_zero_rejected;
         Alcotest.test_case "stop exception returns to the root" `Quick
           test_stop_exception_returns_to_root;
         Alcotest.test_case "fresh variables are decided first" `Quick
           test_fresh_variables_first;
         Alcotest.test_case "failed-assumption core edge cases" `Quick
           test_core_edge_cases;
         Alcotest.test_case "released storage searches as new" `Quick
           test_released_storage ]);
      ("growth",
       [ Alcotest.test_case "long clauses between solves" `Quick
           test_long_clauses_incremental;
         Alcotest.test_case "planted 3-SAT, 200 vars" `Quick test_planted_3sat;
         Alcotest.test_case "pigeonhole 8/7" `Quick test_pigeonhole_8_7 ]);
      ("pinned",
       [ Alcotest.test_case "BMC search counters" `Quick
           test_pinned_bmc_search;
         Alcotest.test_case "decision queue across solves" `Quick
           test_pinned_queue ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_solver_correct; prop_tseitin_equisat; prop_core_refutes ]) ]
