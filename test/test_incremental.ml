(* Differential lockdown of the incremental SAT path and the packed BDD
   arena. The incremental solvers (persistent clause database, learnt-clause
   retention, assumption solving) must be observationally identical to the
   rebuild-from-scratch oracles: same verdicts, same final depths/k, same
   trace lengths — on every structurally distinct seeded-chip obligation and
   on a Qa.Gen fuzz stream. Every IC3 proof met on the way, in either mode,
   is checked with BDDs. On the same obligations, and on random small
   netlists, BMC's template frame encoder must emit the reference encoder's
   clauses in the reference's order. The solver itself is pinned by a QCheck
   equivalence (solve_assuming A = fresh solve of CNF ∧ A) and a
   determinism/retention regression. The arena BDD is pinned against
   exhaustive truth tables across slab growth and unique-table rehashes. *)

module E = Mc.Engine

(* ---- result signatures: what must agree between the two modes ---- *)

let bmc_sig = function
  | Mc.Bmc.No_violation_upto (d, (s : Mc.Bmc.stats)) ->
    Printf.sprintf "no-violation:%d:%d" d s.Mc.Bmc.depth
  | Mc.Bmc.Violation (tr, s) ->
    Printf.sprintf "violation:%d:%d" (Mc.Trace.length tr) s.Mc.Bmc.depth
  | Mc.Bmc.Inconclusive _ -> "inconclusive"

let kind_sig = function
  | Mc.Induction.Proved_by_induction (s : Mc.Induction.stats) ->
    Printf.sprintf "proved:%d" s.Mc.Induction.k
  | Mc.Induction.Violation (tr, s) ->
    Printf.sprintf "violation:%d:%d" (Mc.Trace.length tr) s.Mc.Induction.k
  | Mc.Induction.Inconclusive _ -> "inconclusive"

(* IC3's two modes answer the same queries but may explore different models,
   so frame counts and even refutation depths can differ; only the verdict
   class is pinned *)
let ic3_sig = function
  | Mc.Ic3.Proved _ -> "proved"
  | Mc.Ic3.Violation _ -> "violation"
  | Mc.Ic3.Inconclusive _ -> "inconclusive"

(* Every IC3 proof's fixpoint frame, checked with BDDs on a [Sym] of the
   same netlist: with [c] the constraint bit, Init => Inv, Inv /\ c =>
   Inv' and Inv /\ c => ok. A check whose BDDs outgrow the node limit is
   counted, not failed. *)
let ic3_proofs_checked = ref 0
let ic3_proofs_over_limit = ref 0

let check_ic3_proof ~label sym (_, ok_signal, constraint_signal) inv =
  match Lazy.force sym with
  | exception Bdd.Node_limit -> incr ic3_proofs_over_limit
  | sym -> (
    let m = Mc.Sym.man sym in
    let implies a b = Bdd.is_zero (Bdd.and_ m a (Bdd.not_ m b)) in
    match
      let inv =
        List.fold_left
          (fun acc cube ->
            let cube =
              List.map (fun (v, b) -> (Mc.Sym.cur_var sym v, b)) cube
            in
            Bdd.and_ m acc (Bdd.not_ m (Bdd.cube m cube)))
          (Bdd.one m) inv
      in
      let inv_c =
        match constraint_signal with
        | Some c -> Bdd.and_ m inv (Mc.Sym.signal_bit sym c 0)
        | None -> inv
      in
      ( implies (Mc.Sym.init sym) inv,
        implies inv_c (Mc.Sym.subst_next sym inv),
        implies inv_c (Mc.Sym.signal_bit sym ok_signal 0) )
    with
    | exception Bdd.Node_limit -> incr ic3_proofs_over_limit
    | initiation, consecution, safety ->
      Alcotest.(check bool) (label ^ ": Init => Inv") true initiation;
      Alcotest.(check bool) (label ^ ": Inv /\\ C => Inv'") true consecution;
      Alcotest.(check bool) (label ^ ": Inv /\\ C => ok") true safety;
      incr ic3_proofs_checked)

let report_ic3_proofs () =
  Printf.printf "IC3 proofs checked with BDDs: %d, over the node limit: %d\n"
    !ic3_proofs_checked !ic3_proofs_over_limit;
  Alcotest.(check bool) "IC3 proofs were checked" true
    (!ic3_proofs_checked > 0);
  ic3_proofs_checked := 0;
  ic3_proofs_over_limit := 0

(* The template frame encoder against the reference, clause for clause:
   frames 0..[depth] of one obligation through each, each into a fresh
   context solved depth by depth. The clause streams (each clause a sorted
   literal set), the variable and clause counts, and every depth's answer,
   trace and search counters must be equal. *)
let encoder_run ~depth (nl, ok_signal, constraint_signal) incremental =
  let clauses = ref [] in
  let inc =
    Mc.Bmc.create_inc ~incremental
      ~on_clause:(fun c -> clauses := List.sort_uniq compare c :: !clauses)
      ?constraint_signal nl ~ok_signal
  in
  let answers = ref [] in
  for d = 0 to depth do
    let outcome, (st : Solver.stats) =
      Mc.Bmc.solve_depth ~max_conflicts:50_000 inc ~depth:d
    in
    let verdict =
      match outcome with
      | `No_violation -> "no-violation"
      | `Unknown -> "unknown"
      | `Violation trace -> "violation\n" ^ Mc.Trace.to_string trace
    in
    answers :=
      Printf.sprintf "depth %d: %s\n%d/%d/%d/%d/%d" d verdict st.decisions
        st.conflicts st.propagations st.restarts st.learned
      :: !answers
  done;
  ( List.rev !clauses, Mc.Bmc.inc_cnf_vars inc, Mc.Bmc.inc_cnf_clauses inc,
    List.rev !answers )

let check_encoders ~label ~depth prep =
  let clauses, vars, nclauses, answers = encoder_run ~depth prep true
  and clauses', vars', nclauses', answers' = encoder_run ~depth prep false in
  Alcotest.(check int) (label ^ ": template cnf_vars") vars' vars;
  Alcotest.(check int) (label ^ ": template cnf_clauses") nclauses' nclauses;
  Alcotest.(check bool) (label ^ ": template clause stream") true
    (clauses = clauses');
  Alcotest.(check (list string)) (label ^ ": template answers") answers'
    answers

let check_netlist_both ~label ((nl, ok_signal, constraint_signal) as prep) =
  check_encoders ~label ~depth:20 prep;
  let bmc inc =
    bmc_sig
      (Mc.Bmc.check ~incremental:inc ~max_conflicts:50_000 ?constraint_signal
         nl ~ok_signal ~depth:8)
  in
  Alcotest.(check string) (label ^ ": bmc") (bmc false) (bmc true);
  let kind inc =
    kind_sig
      (Mc.Induction.check ~incremental:inc ~max_conflicts:50_000 ~max_k:8
         ?constraint_signal nl ~ok_signal)
  in
  Alcotest.(check string) (label ^ ": kind") (kind false) (kind true);
  let sym = lazy (Mc.Sym.create ~node_limit:500_000 nl) in
  let ic3 inc =
    let r =
      Mc.Ic3.check ~incremental:inc ~max_conflicts:50_000 ~max_frames:8
        ?constraint_signal nl ~ok_signal
    in
    (match r with
     | Mc.Ic3.Proved (_, inv) ->
       let mode = if inc then ": ic3 proof" else ": ic3[scratch] proof" in
       check_ic3_proof ~label:(label ^ mode) sym prep inv
     | Mc.Ic3.Violation _ | Mc.Ic3.Inconclusive _ -> ());
    ic3_sig r
  in
  Alcotest.(check string) (label ^ ": ic3") (ic3 false) (ic3 true)

(* every structurally distinct obligation of the seeded bug chip, prepared
   through the shared per-module path exactly like the campaign does *)
let test_seeded_chip_differential () =
  let chip = Chip.Generator.generate ~with_bugs:true () in
  let works = Core.Campaign.work_items chip in
  let by_module = Hashtbl.create 97 in
  let order = ref [] in
  List.iter
    (fun (w : Core.Campaign.work) ->
      let mname = w.Core.Campaign.w_mdl.Rtl.Mdl.name in
      let key =
        w.Core.Campaign.w_vunit_name ^ "/" ^ w.Core.Campaign.w_prop_name
      in
      (match Hashtbl.find_opt by_module mname with
       | None ->
         order := (mname, w.Core.Campaign.w_mdl) :: !order;
         Hashtbl.add by_module mname []
       | Some _ -> ());
      Hashtbl.replace by_module mname
        (Hashtbl.find by_module mname
        @ [ (key, w.Core.Campaign.w_assert, w.Core.Campaign.w_assumes) ]))
    works;
  let seen = Hashtbl.create 97 in
  let unique = ref 0 and total = ref 0 in
  List.iter
    (fun (mname, mdl) ->
      let props = Hashtbl.find by_module mname in
      List.iter
        (fun (key, ((nl, ok, cons) as prep)) ->
          incr total;
          let roots =
            ok :: (match cons with Some c -> [ c ] | None -> [])
          in
          let fp = Rtl.Canon.fingerprint ~roots nl in
          if not (Hashtbl.mem seen fp) then begin
            Hashtbl.add seen fp ();
            incr unique;
            check_netlist_both ~label:(mname ^ "." ^ key) prep
          end)
        (E.prepare_module mdl ~props))
    (List.rev !order);
  Alcotest.(check int) "all obligations prepared" (List.length works) !total;
  Alcotest.(check bool) "dedup leaves a meaningful sweep" true (!unique > 20);
  report_ic3_proofs ()

(* a Qa.Gen stream — wider parameter space than the chip, including seeded
   mutations, so violating obligations are well represented *)
let test_fuzz_stream_differential () =
  for index = 0 to 7 do
    let case = Qa.Gen.case_of ~seed:42 ~index in
    let mdl = case.Qa.Gen.info.Verifiable.Transform.mdl in
    List.iter
      (fun (_cls, vu) ->
        let assumes = List.map snd (Psl.Ast.assumes vu) in
        List.iter
          (fun (prop_name, assert_) ->
            let prep = E.instrumented_netlist mdl ~assert_ ~assumes in
            check_netlist_both
              ~label:(case.Qa.Gen.id ^ "." ^ prop_name)
              prep)
          (Psl.Ast.asserts vu))
      (Verifiable.Propgen.all case.Qa.Gen.info case.Qa.Gen.spec)
  done;
  report_ic3_proofs ()

(* ---- the template on random small netlists ---- *)

module W = Rtl.Expr

(* 1-4 four-bit registers over inputs a and b, with random resets; the
   next-state functions and the ok bit come from the expression generator
   over the inputs, the registers and constants, 0000 and 1111 among them.
   Registers that reset to or hold constants fold frames; a register that
   copies an input or another register makes frames carry aliases; an xor
   with a register that folds to 1111 is a Not that another Not undoes;
   and muxes whose arms fold to constants, or to one leaf, reach every ite
   rewrite. *)
let gen_netlist =
  let open QCheck.Gen in
  int_range 1 4 >>= fun nregs ->
  let names = List.init nregs (Printf.sprintf "r%d") in
  let const n = W.of_int ~width:4 n in
  let leaf =
    oneof
      ([ return (W.var "a"); return (W.var "b"); return (const 0);
         return (const 15); map (fun n -> const (n land 15)) small_nat ]
      @ List.map (fun r -> return (W.var r)) names)
  in
  let word = Rtl_gen.expr leaf 2 in
  let next =
    frequency
      [ (4, word);
        (2, leaf);
        (1, map2 (fun r e -> W.(!:(!:(r ^: e)))) leaf word);
        (2, map3 (fun c a b -> W.mux (W.bit c 0) a b) word leaf leaf) ]
  in
  list_repeat nregs (pair (int_bound 15) next) >>= fun regs ->
  next >>= fun w ->
  oneofl [ W.red_or w; W.bit w 0; W.(w <>: of_int ~width:4 15); W.red_and w ]
  >|= fun ok ->
  let regs =
    List.map2
      (fun name (reset, next) ->
        { Rtl.Netlist.name; width = 4;
          reset_value = Bitvec.of_int ~width:4 reset; next;
          cls = Rtl.Mdl.Plain; parity_protected = false })
      names regs
  in
  { Rtl.Netlist.top = "rand"; inputs = [ ("a", 4); ("b", 4) ];
    outputs = [ ("ok", 1) ]; wires = []; assigns = [ ("ok", ok) ]; regs }

let print_netlist (nl : Rtl.Netlist.t) =
  String.concat "; "
    (List.map
       (fun (r : Rtl.Netlist.flat_reg) ->
         Printf.sprintf "%s <= %s (reset %s)" r.Rtl.Netlist.name
           (W.to_string r.Rtl.Netlist.next)
           (Bitvec.to_string r.Rtl.Netlist.reset_value))
       nl.Rtl.Netlist.regs
    @ List.map (fun (n, e) -> n ^ " = " ^ W.to_string e) nl.Rtl.Netlist.assigns)

let prop_template_equals_reference =
  QCheck.Test.make ~name:"template frames == reference frames" ~count:300
    (QCheck.make ~print:print_netlist gen_netlist) (fun nl ->
      check_encoders ~label:"random netlist" ~depth:6 (nl, "ok", None);
      true)

(* ---- solve_assuming A == fresh solve of (CNF ∧ A), sequenced ---- *)

let arb_inc_instance =
  let open QCheck.Gen in
  let gen =
    int_range 1 20 >>= fun nvars ->
    int_range 0 60 >>= fun nclauses ->
    let lit =
      int_range 1 nvars >>= fun v -> map (fun b -> if b then v else -v) bool
    in
    list_repeat nclauses (int_range 1 4 >>= fun len -> list_repeat len lit)
    >>= fun clauses ->
    int_range 1 4 >>= fun nsets ->
    list_repeat nsets
      (int_range 0 5 >>= fun n ->
       list_repeat n lit >|= fun ls ->
       (* one literal per variable: contradictory assumption pairs would
          only test the Assumption_false path, which crafted tests cover *)
       List.sort_uniq compare
         (List.filteri
            (fun i l ->
              List.for_all (fun l' -> abs l' <> abs l)
                (List.filteri (fun j _ -> j < i) ls))
            ls))
    >|= fun sets -> (nvars, clauses, sets)
  in
  QCheck.make
    ~print:(fun (nvars, clauses, sets) ->
      Printf.sprintf "nvars=%d clauses=%s sets=%s" nvars
        (String.concat ";"
           (List.map
              (fun c -> String.concat "," (List.map string_of_int c))
              clauses))
        (String.concat ";"
           (List.map
              (fun s -> String.concat "," (List.map string_of_int s))
              sets)))
    gen

let prop_solve_assuming_equiv =
  QCheck.Test.make
    ~name:"solve_assuming A == fresh solve of CNF ∧ A (sequenced)" ~count:300
    arb_inc_instance (fun (nvars, clauses, sets) ->
      let t = Solver.create () in
      List.iter (Solver.add_clause t) clauses;
      List.for_all
        (fun assumps ->
          let inc = Solver.solve_assuming t assumps in
          let scratch =
            Solver.solve
              (Cnf.create ~nvars
                 (clauses @ List.map (fun l -> [ l ]) assumps))
          in
          match (inc, scratch) with
          | Solver.Sat model, Solver.Sat _ ->
            let value l =
              let v = model.(abs l - 1) in
              if l > 0 then v else not v
            in
            List.for_all (fun c -> List.exists value c) clauses
            && List.for_all value assumps
          | Solver.Unsat, Solver.Unsat -> true
          | (Solver.Sat _ | Solver.Unsat | Solver.Unknown), _ -> false)
        sets)

(* ---- determinism and learnt-clause retention across restarts ---- *)

(* php(5,4) under an activation literal: enough conflicts to trigger
   restarts, and UNSAT only when the activation is assumed *)
let php_activated () =
  let pigeons = 7 and holes = 6 in
  let act = (pigeons * holes) + 1 in
  let var p h = (p * holes) + h + 1 in
  let clauses =
    List.init pigeons (fun p -> -act :: List.init holes (fun h -> var p h))
    @ List.concat
        (List.concat
           (List.init holes (fun h ->
                List.init pigeons (fun p1 ->
                    List.filteri
                      (fun p2 _ -> p2 > p1)
                      (List.init pigeons (fun p2 ->
                           [ -var p1 h; -var p2 h ]))))))
  in
  (act, clauses)

let test_solver_determinism () =
  let act, clauses = php_activated () in
  let cnf =
    Cnf.create ~nvars:act (clauses @ [ [ act ] ])
  in
  let r1, s1 = Solver.solve_stats cnf in
  let r2, s2 = Solver.solve_stats cnf in
  let is_unsat = function
    | Solver.Unsat -> true
    | Solver.Sat _ | Solver.Unknown -> false
  in
  Alcotest.(check bool) "one-shot unsat" true (is_unsat r1 && is_unsat r2);
  Alcotest.(check bool) "one-shot solves are bit-identical work" true
    (s1 = s2);
  Alcotest.(check bool) "the search restarts (the regression's trigger)" true
    (s1.Solver.restarts > 0);
  (* two persistent solvers fed the same call sequence do the same work *)
  let mk () =
    let t = Solver.create () in
    List.iter (Solver.add_clause t) clauses;
    t
  in
  let a = mk () and b = mk () in
  let _, sa = Solver.solve_assuming_stats a [ act ] in
  let _, sb = Solver.solve_assuming_stats b [ act ] in
  Alcotest.(check bool) "persistent solvers are deterministic" true (sa = sb)

let test_learnt_retention () =
  let act, clauses = php_activated () in
  let t = Solver.create () in
  List.iter (Solver.add_clause t) clauses;
  let r1, s1 = Solver.solve_assuming_stats t [ act ] in
  let _r2, s2 = Solver.solve_assuming_stats t [ act ] in
  let is_unsat = function
    | Solver.Unsat -> true
    | Solver.Sat _ | Solver.Unknown -> false
  in
  Alcotest.(check bool) "unsat under activation" true (is_unsat r1);
  (* the whole point of clause persistence: the second identical query rides
     the learnt clauses (and the restart logic must not have thrown the
     activity order away) — it must conflict strictly less *)
  Alcotest.(check bool)
    (Printf.sprintf "second solve cheaper (%d -> %d conflicts)"
       s1.Solver.conflicts s2.Solver.conflicts)
    true
    (s2.Solver.conflicts < s1.Solver.conflicts);
  (* and the solver is still usable and sat without the activation *)
  match Solver.solve_assuming t [] with
  | Solver.Sat _ -> ()
  | Solver.Unsat | Solver.Unknown ->
    Alcotest.fail "database alone must stay satisfiable"

(* ---- shared preparation == unshared preparation, name for name ---- *)

let test_prepare_module_identity () =
  (* one module of every distinct structure (the module without its name,
     plus its properties' formulas) on the pre- and post-fix chips: the
     127-property D leaves reduce every cone from one shared COI index *)
  let seen = Hashtbl.create 64 in
  let check_module mdl props =
    let shared = E.prepare_module mdl ~props in
    Alcotest.(check int) "one prepared check per property" (List.length props)
      (List.length shared);
    List.iter2
      (fun (name, assert_, assumes) (name', (nl, ok, cons)) ->
        Alcotest.(check string) "order preserved" name name';
        let name = mdl.Rtl.Mdl.name ^ "." ^ name in
        let nl_u, ok_u, cons_u = E.instrumented_netlist mdl ~assert_ ~assumes in
        Alcotest.(check string) (name ^ ": ok signal") ok_u ok;
        Alcotest.(check (option string)) (name ^ ": constraint") cons_u cons;
        Alcotest.(check bool) (name ^ ": same netlist") true (nl_u = nl))
      props shared
  in
  List.iter
    (fun with_bugs ->
      let works =
        Core.Campaign.work_items (Chip.Generator.generate ~with_bugs ())
      in
      let by_module = Hashtbl.create 128 and order = ref [] in
      List.iter
        (fun (w : Core.Campaign.work) ->
          let mdl = w.Core.Campaign.w_mdl in
          let prop =
            ( w.Core.Campaign.w_prop_name, w.Core.Campaign.w_assert,
              w.Core.Campaign.w_assumes )
          in
          let name = mdl.Rtl.Mdl.name in
          match Hashtbl.find_opt by_module name with
          | Some props -> Hashtbl.replace by_module name (prop :: props)
          | None ->
            Hashtbl.add by_module name [ prop ];
            order := mdl :: !order)
        works;
      List.iter
        (fun (mdl : Rtl.Mdl.t) ->
          let props = List.rev (Hashtbl.find by_module mdl.Rtl.Mdl.name) in
          let key =
            ( { mdl with Rtl.Mdl.name = "" },
              List.map (fun (_, a, s) -> (a, s)) props )
          in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            check_module mdl props
          end)
        (List.rev !order))
    [ true; false ];
  (* the pre-fix chip's 22 structures and the 6 its bug fixes add *)
  Alcotest.(check int) "every structure of both chips" 28
    (Hashtbl.length seen)

(* ---- arena BDD vs exhaustive truth tables ---- *)

type bexp =
  | V of int
  | Const of bool
  | Not of bexp
  | And of bexp * bexp
  | Or of bexp * bexp
  | Xor of bexp * bexp

let rec gen_bexp n depth st =
  let open QCheck.Gen in
  if depth = 0 then
    frequency
      [ (4, map (fun i -> V i) (int_range 0 (n - 1)));
        (1, map (fun b -> Const b) bool) ]
      st
  else
    let sub = gen_bexp n (depth - 1) in
    frequency
      [ (2, map (fun i -> V i) (int_range 0 (n - 1)));
        (1, map (fun e -> Not e) sub);
        (2, map2 (fun a b -> And (a, b)) sub sub);
        (2, map2 (fun a b -> Or (a, b)) sub sub);
        (1, map2 (fun a b -> Xor (a, b)) sub sub) ]
      st

let rec eval_bexp assign = function
  | V i -> assign i
  | Const b -> b
  | Not e -> not (eval_bexp assign e)
  | And (a, b) -> eval_bexp assign a && eval_bexp assign b
  | Or (a, b) -> eval_bexp assign a || eval_bexp assign b
  | Xor (a, b) -> eval_bexp assign a <> eval_bexp assign b

let rec build_bdd m = function
  | V i -> Bdd.var m i
  | Const b -> if b then Bdd.one m else Bdd.zero m
  | Not e -> Bdd.not_ m (build_bdd m e)
  | And (a, b) -> Bdd.and_ m (build_bdd m a) (build_bdd m b)
  | Or (a, b) -> Bdd.or_ m (build_bdd m a) (build_bdd m b)
  | Xor (a, b) -> Bdd.xor m (build_bdd m a) (build_bdd m b)

let rec print_bexp = function
  | V i -> Printf.sprintf "x%d" i
  | Const b -> string_of_bool b
  | Not e -> "!" ^ print_bexp e
  | And (a, b) -> Printf.sprintf "(%s&%s)" (print_bexp a) (print_bexp b)
  | Or (a, b) -> Printf.sprintf "(%s|%s)" (print_bexp a) (print_bexp b)
  | Xor (a, b) -> Printf.sprintf "(%s^%s)" (print_bexp a) (print_bexp b)

let arb_bexp =
  QCheck.make
    ~print:(fun (n, e) -> Printf.sprintf "n=%d %s" n (print_bexp e))
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      int_range 0 6 >>= fun depth ->
      gen_bexp n depth >|= fun e -> (n, e))

let prop_arena_matches_brute_force =
  QCheck.Test.make ~name:"arena BDD matches exhaustive evaluation" ~count:200
    arb_bexp (fun (n, e) ->
      let m = Bdd.create ~nvars:n () in
      let f = build_bdd m e in
      let ones = ref 0 in
      let ok = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let assign i = (mask lsr i) land 1 = 1 in
        let expect = eval_bexp assign e in
        if expect then incr ones;
        if Bdd.eval m assign f <> expect then ok := false;
        (* cofactor agreement on variable 0 *)
        let f0 = Bdd.restrict m 0 (assign 0) f in
        if Bdd.eval m assign f0 <> expect then ok := false
      done;
      !ok
      && Bdd.is_one f = (!ones = 1 lsl n)
      && Bdd.is_zero f = (!ones = 0)
      && Bdd.sat_count m f = float_of_int !ones)

(* cubes force thousands of fresh nodes: several slab doublings and unique
   table rehashes; hash consing must stay exact through all of them *)
let test_arena_growth_rehash () =
  let n = 16 in
  let m = Bdd.create ~nvars:n () in
  let cube_of i =
    Bdd.cube m (List.init n (fun v -> (v, (i lsr v) land 1 = 1)))
  in
  let cubes = Array.init 600 cube_of in
  Alcotest.(check bool) "arena grew past its initial capacity" true
    (Bdd.node_count m > 1024);
  (* re-interning after growth and rehash yields the same handles *)
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "hash consing survives rehash" true
        (Bdd.equal c (cube_of i)))
    cubes;
  (* and the functions are still right *)
  Array.iteri
    (fun i c ->
      let assign v = (i lsr v) land 1 = 1 in
      Alcotest.(check bool) "cube sat at its own minterm" true
        (Bdd.eval m assign c);
      Alcotest.(check bool) "cube unsat one bit off" false
        (Bdd.eval m (fun v -> if v = 0 then not (assign 0) else assign v) c);
      Alcotest.(check (float 0.0)) "cube sat_count" 1.0 (Bdd.sat_count m c))
    cubes

let test_arena_interrupt_and_peak () =
  let n = 16 in
  let m = Bdd.create ~nvars:n () in
  Bdd.set_interrupt m (Some (fun () -> false));
  for i = 0 to 1199 do
    ignore (Bdd.cube m (List.init n (fun v -> (v, ((i * 7) lsr v) land 1 = 1))))
  done;
  Alcotest.(check bool) "interrupt polled during allocation" true
    (Bdd.interrupt_polls m > 0);
  let count_before = Bdd.node_count m in
  Bdd.clear_caches m;
  Alcotest.(check int) "clear_caches keeps the arena (peak accounting)"
    count_before (Bdd.node_count m);
  (* a firing interrupt aborts the allocating operation *)
  Bdd.set_interrupt m (Some (fun () -> true));
  let interrupted = ref false in
  (try
     for i = 0 to 9999 do
       ignore
         (Bdd.cube m
            (List.init n (fun v -> (v, ((i * 131) lsr v) land 1 = 1))))
     done
   with Bdd.Interrupted -> interrupted := true);
  Alcotest.(check bool) "interrupt aborts" true !interrupted;
  Alcotest.(check bool) "arena monotone across the abort" true
    (Bdd.node_count m >= count_before)

let test_arena_node_limit () =
  let m = Bdd.create ~node_limit:100 ~nvars:16 () in
  let hit = ref false in
  (try
     for i = 0 to 999 do
       ignore
         (Bdd.cube m (List.init 16 (fun v -> (v, (i lsr v) land 1 = 1))))
     done
   with Bdd.Node_limit -> hit := true);
  Alcotest.(check bool) "node limit enforced" true !hit;
  Alcotest.(check bool) "limit is exact" true (Bdd.node_count m <= 100)

let () =
  Alcotest.run "incremental"
    [ ("differential",
       [ Alcotest.test_case "seeded chip: incremental == scratch" `Slow
           test_seeded_chip_differential;
         Alcotest.test_case "fuzz stream: incremental == scratch" `Slow
           test_fuzz_stream_differential ]);
      ("solver",
       [ QCheck_alcotest.to_alcotest prop_solve_assuming_equiv;
         Alcotest.test_case "determinism" `Quick test_solver_determinism;
         Alcotest.test_case "learnt retention across restarts" `Quick
           test_learnt_retention ]);
      ("encoder",
       [ QCheck_alcotest.to_alcotest prop_template_equals_reference ]);
      ("preparation",
       [ Alcotest.test_case "prepare_module == instrumented_netlist" `Quick
           test_prepare_module_identity ]);
      ("arena",
       [ QCheck_alcotest.to_alcotest prop_arena_matches_brute_force;
         Alcotest.test_case "growth and rehash" `Quick
           test_arena_growth_rehash;
         Alcotest.test_case "interrupt polling and peak accounting" `Quick
           test_arena_interrupt_and_peak;
         Alcotest.test_case "node limit" `Quick test_arena_node_limit ]) ]
