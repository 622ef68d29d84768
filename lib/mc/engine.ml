type strategy =
  | Bdd_forward
  | Bdd_backward
  | Bdd_combined
  | Pobdd
  | Bmc
  | Kind
  | Ic3
  | Auto
  | Portfolio of portfolio

and portfolio = { p_name : string; p_members : member list }

and member = { m_strategy : strategy; m_budget : budget }

and budget = {
  bdd_node_limit : int option;
  pobdd_node_limit : int option;
  pobdd_split_vars : int;
  bmc_depth : int;
  induction_max_k : int;
  sat_max_conflicts : int;
  ic3_max_frames : int;
  wall_deadline_s : float option;
  incremental : bool;
}

let strategy_name = function
  | Bdd_forward -> "bdd-forward"
  | Bdd_backward -> "bdd-backward"
  | Bdd_combined -> "bdd-combined"
  | Pobdd -> "pobdd"
  | Bmc -> "bmc"
  | Kind -> "k-induction"
  | Ic3 -> "ic3"
  | Auto -> "auto"
  | Portfolio p -> "portfolio:" ^ p.p_name

let strategy_of_string = function
  | "bdd-forward" -> Some Bdd_forward
  | "bdd-backward" -> Some Bdd_backward
  | "bdd-combined" -> Some Bdd_combined
  | "pobdd" -> Some Pobdd
  | "bmc" -> Some Bmc
  | "k-induction" -> Some Kind
  | "ic3" -> Some Ic3
  | "auto" -> Some Auto
  | _ -> None

let default_budget =
  { bdd_node_limit = Some 2_000_000; pobdd_node_limit = Some 8_000_000;
    pobdd_split_vars = 2; bmc_depth = 20; induction_max_k = 20;
    sat_max_conflicts = 2_000_000; ic3_max_frames = 32;
    wall_deadline_s = None; incremental = true }

let degrade_budget b =
  let half = Option.map (fun n -> max 1 (n / 2)) in
  { b with
    bdd_node_limit = half b.bdd_node_limit;
    pobdd_node_limit = half b.pobdd_node_limit;
    sat_max_conflicts = max 1 (b.sat_max_conflicts / 2);
    wall_deadline_s = Option.map (fun s -> s /. 2.0) b.wall_deadline_s }

let portfolio ~name members =
  if members = [] then invalid_arg "Engine.portfolio: empty member list";
  List.iter
    (fun m ->
      match m.m_strategy with
      | Auto | Portfolio _ ->
        invalid_arg
          (Printf.sprintf
             "Engine.portfolio: member %s is not an atomic strategy"
             (strategy_name m.m_strategy))
      | Bdd_forward | Bdd_backward | Bdd_combined | Pobdd | Bmc | Kind | Ic3
        ->
        ())
    members;
  { p_name = name; p_members = members }

(* The default racing portfolio. The BDD member runs with a small node cap:
   on this workload almost every obligation collapses in a few thousand
   nodes, so the cap only trips on the genuinely hard cones — exactly the
   ones worth racing the SAT engines on. The final POBDD member keeps
   Auto's full budget as the conclusiveness backstop, so a portfolio race
   decides every obligation Auto decides. Members carry no private wall
   deadline: every member runs under the check's deadline. *)
let speculation_bdd_nodes = 5_000

let default_portfolio base =
  let base = { base with wall_deadline_s = None } in
  let cap =
    match base.bdd_node_limit with
    | Some n -> Some (min n speculation_bdd_nodes)
    | None -> Some speculation_bdd_nodes
  in
  portfolio ~name:"default"
    [ { m_strategy = Bdd_combined;
        m_budget = { base with bdd_node_limit = cap } };
      { m_strategy = Kind; m_budget = base };
      { m_strategy = Ic3; m_budget = base };
      { m_strategy = Pobdd; m_budget = base } ]

type verdict =
  | Proved
  | Proved_bounded of int
  | Failed of Trace.t
  | Resource_out of string
  | Error of string

type perf = {
  bdd_peak : int;
  bdd_polls : int;
  fix_iterations : int;
  peak_set_size : int;
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  incremental_reuse : int;
  unroll_depth : int;
  final_k : int;
  ic3_frames : int;
  attempts : string list;
}

let empty_perf =
  { bdd_peak = 0; bdd_polls = 0; fix_iterations = 0; peak_set_size = 0;
    sat_decisions = 0; sat_conflicts = 0; sat_propagations = 0;
    sat_restarts = 0; incremental_reuse = 0; unroll_depth = -1; final_k = -1;
    ic3_frames = -1; attempts = [] }

type outcome = {
  verdict : verdict;
  engine_used : string;
  time_s : float;
  iterations : int;
  work_nodes : int;
  perf : perf;
}

(* canonical Resource_out cause vocabulary, exported so the campaign,
   metrics schema and healing layer never spell these ad hoc *)
let ro_deadline = "deadline"
let ro_bdd_nodes = "bdd-nodes"
let ro_sat_conflicts = "sat-conflicts"
let ro_kind_inconclusive = "kind-inconclusive"
let ro_cancelled = "cancelled"
let ro_ic3_frames = "ic3-frames"
let ro_heal_exhausted = "heal-exhausted"

let ro_causes =
  [ ro_deadline; ro_bdd_nodes; ro_sat_conflicts; ro_kind_inconclusive;
    ro_ic3_frames; ro_cancelled; ro_heal_exhausted ]

let resource_cause o =
  match o.verdict with Resource_out c -> Some c | _ -> None

let conclusive o =
  match o.verdict with
  | Proved | Failed _ -> true
  | Proved_bounded _ | Resource_out _ | Error _ -> false

(* a member that ran out of the check's deadline ends its portfolio too:
   every later member would start under the same expired deadline. Read
   off the outcome alone, so the racing scheduler and the sequential
   runner stop at the same member. *)
let settles o = conclusive o || resource_cause o = Some ro_deadline

(* Deterministic winner selection over a portfolio prefix. The attributed
   prefix runs from member 0 through the first settling member (or all
   members when none settles); within it, a conclusive verdict always
   wins, then a bounded proof (deeper is better), then resource-out, then
   error — ties to the later index, so a member that ran after another
   gave up explains the outcome. This is a pure function of the member
   outcomes, so the sequential runner and a race that cancels
   higher-indexed members at the same prefix agree exactly. *)
let outcome_rank o =
  match o.verdict with
  | Proved | Failed _ -> (3, 0)
  | Proved_bounded d -> (2, d)
  | Resource_out _ -> (1, 0)
  | Error _ -> (0, 0)

let merge_perf a p =
  { bdd_peak = max a.bdd_peak p.bdd_peak;
    bdd_polls = a.bdd_polls + p.bdd_polls;
    fix_iterations = a.fix_iterations + p.fix_iterations;
    peak_set_size = max a.peak_set_size p.peak_set_size;
    sat_decisions = a.sat_decisions + p.sat_decisions;
    sat_conflicts = a.sat_conflicts + p.sat_conflicts;
    sat_propagations = a.sat_propagations + p.sat_propagations;
    sat_restarts = a.sat_restarts + p.sat_restarts;
    incremental_reuse = a.incremental_reuse + p.incremental_reuse;
    unroll_depth = max a.unroll_depth p.unroll_depth;
    final_k = max a.final_k p.final_k;
    ic3_frames = max a.ic3_frames p.ic3_frames;
    attempts = a.attempts @ p.attempts }

let combine_portfolio outcomes =
  if outcomes = [] then invalid_arg "Engine.combine_portfolio: no outcomes";
  (* truncate at the first settling member: anything a race might have
     run beyond it is schedule-dependent and must not be attributed *)
  let rec prefix acc = function
    | [] -> List.rev acc
    | o :: tl ->
      if settles o then List.rev (o :: acc) else prefix (o :: acc) tl
  in
  let attributed = prefix [] outcomes in
  let winner =
    List.fold_left
      (fun best o -> if outcome_rank o >= outcome_rank best then o else best)
      (List.hd attributed) (List.tl attributed)
  in
  { verdict = winner.verdict;
    engine_used = winner.engine_used;
    time_s = List.fold_left (fun a o -> a +. o.time_s) 0.0 attributed;
    iterations = winner.iterations;
    work_nodes = winner.work_nodes;
    perf = List.fold_left (fun a o -> merge_perf a o.perf) empty_perf attributed
  }

module Telemetry = Obs.Telemetry

(* cause of an interrupted engine run: the wall clock beats the stop hook
   so a deadline that fires during a race still reads "deadline" *)
let interrupt_cause deadline =
  if Deadline.wall_expired deadline then ro_deadline
  else if Deadline.cancelled deadline then ro_cancelled
  else ro_deadline

let report_counters p =
  if Telemetry.active () then begin
    Telemetry.count "engine.attempts";
    Telemetry.count ~n:p.bdd_peak "bdd.nodes";
    Telemetry.count ~n:p.bdd_polls "bdd.interrupt_polls";
    Telemetry.count ~n:p.fix_iterations "reach.iterations";
    Telemetry.count ~n:p.sat_decisions "sat.decisions";
    Telemetry.count ~n:p.sat_conflicts "sat.conflicts";
    Telemetry.count ~n:p.sat_propagations "sat.propagations";
    Telemetry.count ~n:p.sat_restarts "sat.restarts";
    Telemetry.count ~n:p.incremental_reuse "sat.incremental_reuse"
  end

(* One timed engine attempt, and the one place an outcome is built. [run]
   returns the verdict, the engine's iteration and work counts and its
   perf; an interrupt or a BDD node limit raised from inside it becomes a
   resource-out. A resource-out on an expired deadline reads the interrupt
   cause, whatever the engine itself ran out of, and the measured time is
   kept on every exit path. [finish] folds in the work that survives an
   exception (the BDD manager's peak and poll count). *)
let attempt ~engine ~deadline ?(finish = Fun.id) run =
  let t0 = Unix.gettimeofday () in
  let verdict, iterations, work_nodes, perf =
    match Telemetry.span ~cat:"engine" engine run with
    | r -> r
    | exception Bdd.Node_limit -> (Resource_out ro_bdd_nodes, 0, 0, empty_perf)
    | exception (Deadline.Expired | Bdd.Interrupted) ->
      (Resource_out ro_deadline, 0, 0, empty_perf)
  in
  let time_s = Unix.gettimeofday () -. t0 in
  let verdict =
    match verdict with
    | Resource_out _ when Deadline.expired deadline ->
      Resource_out (interrupt_cause deadline)
    | v -> v
  in
  let perf = { (finish perf) with attempts = [ engine ] } in
  report_counters perf;
  { verdict; engine_used = engine; time_s; iterations; work_nodes; perf }

let sat_perf (s : Solver.stats) ~reused =
  { empty_perf with
    sat_decisions = s.Solver.decisions; sat_conflicts = s.Solver.conflicts;
    sat_propagations = s.Solver.propagations;
    sat_restarts = s.Solver.restarts; incremental_reuse = reused }

let run_bdd ~node_limit ~deadline ~engine nl ok_signal constraint_signal
    (check :
      ?constrain:Bdd.t -> ?deadline:Deadline.t -> Sym.t -> ok:Bdd.t ->
      Reach.result) =
  (* the manager dies with the attempt, so its peak and poll count must be
     read on every exit path, including Node_limit raised mid-Sym.create *)
  let man = ref None in
  let finish p =
    match !man with
    | None -> p
    | Some m ->
      (* let go of the manager here: a promoted ref would keep the arena
         alive for another major GC cycle *)
      man := None;
      { p with bdd_peak = max p.bdd_peak (Bdd.node_count m);
               bdd_polls = Bdd.interrupt_polls m }
  in
  attempt ~engine ~deadline ~finish (fun () ->
      (* the manager-level interrupt bounds even a single runaway image
         computation (or the transition-relation build itself); the
         per-iteration Deadline.check in the fixpoint loops bounds
         everything between BDD operations *)
      let interrupt =
        if Deadline.live deadline then Some (Deadline.checker deadline)
        else None
      in
      let sym = Sym.create ?node_limit ?interrupt nl in
      man := Some (Sym.man sym);
      let ok = (Sym.signal_bdd sym ok_signal).(0) in
      let constrain =
        Option.map (fun c -> (Sym.signal_bdd sym c).(0)) constraint_signal
      in
      let verdict, (s : Reach.stats) =
        match check ?constrain ~deadline sym ~ok with
        | Reach.Proved s -> (Proved, s)
        | Reach.Failed (trace, s) -> (Failed trace, s)
      in
      ( verdict, s.Reach.iterations, s.Reach.bdd_nodes,
        { empty_perf with
          bdd_peak = s.Reach.bdd_nodes; fix_iterations = s.Reach.iterations;
          peak_set_size = s.Reach.peak_set_size } ))

(* Auto is the paper's escalation rule as a portfolio: unbounded BDD
   checking, then the partitioned engine, then bounded checking, all at the
   check's own budget *)
let auto_portfolio budget =
  portfolio ~name:"auto"
    (List.map
       (fun s -> { m_strategy = s; m_budget = budget })
       [ Bdd_combined; Pobdd; Bmc ])

let rec run ~budget ?constraint_signal ~deadline ~strategy nl ~ok_signal =
  let engine = strategy_name strategy in
  let bdd ?(node_limit = budget.bdd_node_limit) check =
    run_bdd ~node_limit ~deadline ~engine nl ok_signal constraint_signal check
  in
  match strategy with
  | Auto ->
    run ~budget ?constraint_signal ~deadline
      ~strategy:(Portfolio (auto_portfolio budget)) nl ~ok_signal
  | Portfolio p ->
    (* Sequential portfolio execution: the jobs<=1 degradation of racing.
       Members run in order, every one under the check's deadline, until
       one settles (concludes, or runs out of the deadline); the combined
       outcome attributes exactly that prefix, which is the prefix a race
       settles on, so verdicts and perf aggregates agree byte-for-byte
       with the racing scheduler. *)
    let rec run_members acc_rev = function
      | [] -> List.rev acc_rev
      | m :: tl ->
        let o =
          run ~budget:m.m_budget ?constraint_signal ~deadline
            ~strategy:m.m_strategy nl ~ok_signal
        in
        if settles o then List.rev (o :: acc_rev)
        else run_members (o :: acc_rev) tl
    in
    combine_portfolio (run_members [] p.p_members)
  | Bdd_forward -> bdd Reach.check_forward
  | Bdd_backward -> bdd Reach.check_backward
  | Bdd_combined -> bdd Reach.check_combined
  | Pobdd ->
    bdd ~node_limit:budget.pobdd_node_limit
      (Umc.check_forward_partitioned ~num_split_vars:budget.pobdd_split_vars)
  | Bmc ->
    attempt ~engine ~deadline (fun () ->
        let verdict, (s : Bmc.stats) =
          match
            Bmc.check ~incremental:budget.incremental
              ~max_conflicts:budget.sat_max_conflicts ~deadline
              ?constraint_signal nl ~ok_signal ~depth:budget.bmc_depth
          with
          | Bmc.No_violation_upto (d, s) -> (Proved_bounded d, s)
          | Bmc.Violation (trace, s) -> (Failed trace, s)
          | Bmc.Inconclusive s -> (Resource_out ro_sat_conflicts, s)
        in
        ( verdict, s.Bmc.depth, s.Bmc.cnf_clauses,
          { (sat_perf s.Bmc.sat ~reused:s.Bmc.reused) with
            unroll_depth = s.Bmc.depth } ))
  | Kind ->
    attempt ~engine ~deadline (fun () ->
        let verdict, (s : Induction.stats) =
          match
            Induction.check ~incremental:budget.incremental
              ~max_conflicts:budget.sat_max_conflicts
              ~max_k:budget.induction_max_k ~deadline ?constraint_signal nl
              ~ok_signal
          with
          | Induction.Proved_by_induction s -> (Proved, s)
          | Induction.Violation (trace, s) -> (Failed trace, s)
          | Induction.Inconclusive s -> (Resource_out ro_kind_inconclusive, s)
        in
        ( verdict, s.Induction.k, s.Induction.cnf_clauses,
          { (sat_perf s.Induction.sat ~reused:s.Induction.reused) with
            final_k = s.Induction.k } ))
  | Ic3 ->
    attempt ~engine ~deadline (fun () ->
        let verdict, (s : Ic3.stats) =
          match
            Ic3.check ~incremental:budget.incremental
              ~max_conflicts:budget.sat_max_conflicts
              ~max_frames:budget.ic3_max_frames ~deadline ?constraint_signal
              nl ~ok_signal
          with
          | Ic3.Proved (s, _) -> (Proved, s)
          | Ic3.Violation (trace, s) -> (Failed trace, s)
          | Ic3.Inconclusive (Ic3.Frames_exhausted, s) ->
            (Resource_out ro_ic3_frames, s)
          | Ic3.Inconclusive (Ic3.Solver_limit, s) ->
            (Resource_out ro_sat_conflicts, s)
        in
        ( verdict, s.Ic3.frames, s.Ic3.clauses,
          { (sat_perf s.Ic3.sat ~reused:s.Ic3.reused) with
            ic3_frames = s.Ic3.frames } ))

let check_netlist ?(budget = default_budget) ?constraint_signal ?deadline
    ~strategy nl ~ok_signal =
  let deadline =
    match deadline with
    | Some d -> d
    | None -> Deadline.of_budget budget.wall_deadline_s
  in
  if Telemetry.active () then Telemetry.count "engine.checks";
  run ~budget ?constraint_signal ~deadline ~strategy nl ~ok_signal

(* Inline combinationally-driven signals into the property's boolean layer
   and simplify, so that e.g. [HE[3]] where HE is a concatenation of checker
   groups reduces to that one group's logic. This sharpens the subsequent
   cone-of-influence reduction from whole signals to the bits the property
   actually reads. *)
let make_inliner mdl =
  let driver = Hashtbl.create 97 in
  List.iter
    (fun (a : Rtl.Mdl.assign) -> Hashtbl.replace driver a.Rtl.Mdl.lhs a.Rtl.Mdl.rhs)
    mdl.Rtl.Mdl.assigns;
  let expanded = Hashtbl.create 97 in
  let rec expand_var visiting x =
    match Hashtbl.find_opt expanded x with
    | Some e -> Some e
    | None ->
      if List.mem x visiting then None
      else
        Option.map
          (fun rhs ->
            let e = expand (x :: visiting) rhs in
            Hashtbl.replace expanded x e;
            e)
          (Hashtbl.find_opt driver x)
  and expand visiting e = Rtl.Expr.subst (expand_var visiting) e in
  let env = Rtl.Mdl.widths mdl in
  fun fl ->
    Psl.Ast.map_bool
      (fun e -> Rtl.Expr.simplify ~env (expand [] e))
      fl

(* a name set, for membership tests *)
let name_set names =
  let tbl = Hashtbl.create 97 in
  List.iter (fun n -> Hashtbl.replace tbl n ()) names;
  Hashtbl.mem tbl

(* Drop assumptions that cannot affect the assert: an assumption whose
   signals are all primary inputs outside the assert's cone of influence
   constrains behavior the property never observes, so removing it is sound
   (it only adds behaviors on independent inputs) and shrinks the model. *)
let make_pruner mdl =
  let design = Rtl.Design.of_modules [ mdl ] in
  let nl = Rtl.Elaborate.run design ~top:mdl.Rtl.Mdl.name in
  let declared = name_set (List.map fst (Rtl.Netlist.signals nl)) in
  let is_input = name_set (List.map fst nl.Rtl.Netlist.inputs) in
  let reduce = Rtl.Coi.reduce nl in
  fun ~assert_ ~assumes ->
    let roots = List.filter declared (Psl.Ast.signals assert_) in
    (* only an assumption over inputs alone needs the cone *)
    let in_cone =
      lazy (name_set (List.map fst (Rtl.Netlist.signals (reduce ~roots))))
    in
    let keep a =
      let sigs = Psl.Ast.signals a in
      (not (List.for_all is_input sigs))
      || List.exists (Lazy.force in_cone) sigs
    in
    List.filter keep assumes

(* invariant input-only assumptions ("always <boolean over inputs>") become
   engine-level input constraints instead of latched monitors: the engines
   then simply never explore constraint-violating inputs, which keeps the
   assumption bookkeeping out of the state space *)
let make_splitter mdl =
  let is_input =
    name_set
      (List.map (fun (p : Rtl.Mdl.port) -> p.Rtl.Mdl.port_name)
         (Rtl.Mdl.inputs mdl))
  in
  let as_input_invariant = function
    | Psl.Ast.Always (Psl.Ast.Bool e) | Psl.Ast.Bool e ->
      if List.for_all is_input (Rtl.Expr.support e) then Some e else None
    | Psl.Ast.Not _ | Psl.Ast.And _ | Psl.Ast.Or _ | Psl.Ast.Implies _
    | Psl.Ast.Next _ | Psl.Ast.Next_n _ | Psl.Ast.Always _ | Psl.Ast.Never _
    | Psl.Ast.Until _ | Psl.Ast.Seq_implies _ | Psl.Ast.Eventually _ ->
      None
  in
  List.partition_map (fun a ->
      match as_input_invariant a with
      | Some e -> Either.Left e
      | None -> Either.Right a)

(* the wire [name] holding the conjunction of a property's input
   invariants, as a part to weave after the property's monitor *)
let constraint_part name = function
  | [] -> None
  | es ->
    let c =
      List.fold_left (fun acc e -> Rtl.Expr.( &: ) acc e) Rtl.Expr.tru es
    in
    Some
      { (Rtl.Mdl.create name) with
        Rtl.Mdl.wires = [ (name, 1) ];
        assigns = [ { Rtl.Mdl.lhs = name; rhs = c } ] }

let prep_span name f = Telemetry.span ~cat:"prepare" name f

(* The one preparation front half. Each property [(prefix, assert, assumes)]
   is inlined, its assumptions pruned and its input invariants split off;
   its safety monitor is synthesized against the module alone under
   [prefix], and every monitor, with its input-constraint wire, is woven
   into the module in property order before one elaborate. Returns the
   full netlist and each property's [(ok_signal, constraint_signal)]. The
   module-level work — the inliner's tables, the pruner's raw elaboration
   and its COI index, the weaver's width table and the elaborate — runs
   once however many properties share it. *)
let weave mdl props =
  let fronts =
    prep_span "prepare.inline" (fun () ->
        let inline = make_inliner mdl in
        let prune = make_pruner mdl in
        let split = make_splitter mdl in
        List.map
          (fun (prefix, assert_, assumes) ->
            let assert_ = inline assert_ in
            let assumes = List.map inline assumes in
            let constraints, temporal = split (prune ~assert_ ~assumes) in
            (prefix, assert_, constraints, temporal))
          props)
  in
  (* one width table for every monitor, built inside the first monitor
     span *)
  let weaver = lazy (Psl.Monitor.weaver mdl) in
  let parts =
    List.map
      (fun (prefix, assert_, constraints, temporal) ->
        let mon =
          prep_span "prepare.monitor" (fun () ->
              Lazy.force weaver ~prefix ~assert_ ~assumes:temporal)
        in
        let cons = constraint_part (prefix ^ "_input_constraint") constraints in
        ( mon.Psl.Monitor.mdl :: Option.to_list cons,
          ( mon.Psl.Monitor.invariant_ok,
            Option.map (fun (c : Rtl.Mdl.t) -> c.Rtl.Mdl.name) cons ) ))
      fronts
  in
  let woven = Rtl.Mdl.append mdl (List.concat_map fst parts) in
  let nl =
    prep_span "prepare.elaborate" (fun () ->
        let design = Rtl.Design.of_modules [ woven ] in
        Rtl.Elaborate.run design ~top:woven.Rtl.Mdl.name)
  in
  (nl, List.map snd parts)

let replay_model mdl ~assert_ ~assumes =
  let nl, signals = weave mdl [ ("mon", assert_, assumes) ] in
  let ok_signal, constraint_signal = List.hd signals in
  (nl, ok_signal, constraint_signal)

let prep_version = 1

(* Every property is prepared as part of a cell: the properties of one
   module (the paper's P0/P1/P2 obligations, or a single property) are
   woven under the prefixes [mon<i>] and elaborated together, and each gets
   its own cone-of-influence reduction from its own roots, all reduced from
   one dependency index. Monitors are independent cones, so property [i]'s
   cone holds its own monitor and no other: the reduced netlist of a
   property does not depend on the cell around it. *)
let prepare_module mdl ~props =
  if not (Rtl.Mdl.is_leaf mdl) then
    invalid_arg
      (Printf.sprintf
         "Engine.prepare_module: %s is not a leaf module; the methodology \
          checks leaf modules only"
         mdl.Rtl.Mdl.name);
  let prefix i = Printf.sprintf "mon%d" i in
  let nl, signals =
    weave mdl
      (List.mapi (fun i (_, assert_, assumes) -> (prefix i, assert_, assumes))
         props)
  in
  (* one dependency index for every property's cone, built inside the
     first COI span *)
  let reduce = lazy (Rtl.Coi.reduce nl) in
  List.mapi
    (fun i ((name, _, _), (ok_signal, constraint_signal)) ->
      let roots = ok_signal :: Option.to_list constraint_signal in
      (* after its COI reduction the property's cone holds exactly one
         monitor, so its prefix [mon<i>] folds back to {!replay_model}'s
         [mon]: trace register names then replay on that model *)
      let pre = prefix i ^ "_" in
      let fold n =
        if String.starts_with ~prefix:pre n then
          "mon_" ^ String.sub n (String.length pre)
                     (String.length n - String.length pre)
        else n
      in
      let red =
        prep_span "prepare.coi" (fun () ->
            Rtl.Canon.rename fold (Lazy.force reduce ~roots))
      in
      (name, (red, fold ok_signal, Option.map fold constraint_signal)))
    (List.combine props signals)

(* each property of the cell checked on its own cone *)
let check_cell ~budget ~strategy mdl ~props =
  List.map
    (fun (name, (nl, ok_signal, constraint_signal)) ->
      (name, check_netlist ~budget ?constraint_signal ~strategy nl ~ok_signal))
    (prepare_module mdl ~props)

let check_property ?(budget = default_budget) ?(strategy = Auto) mdl ~assert_
    ~assumes =
  snd
    (List.hd
       (check_cell ~budget ~strategy mdl ~props:[ ("", assert_, assumes) ]))

let check_vunit ?(budget = default_budget) ?(strategy = Auto) mdl vunit =
  let assumes = List.map snd (Psl.Ast.assumes vunit) in
  check_cell ~budget ~strategy mdl
    ~props:
      (List.map
         (fun (name, assert_) -> (name, assert_, assumes))
         (Psl.Ast.asserts vunit))
