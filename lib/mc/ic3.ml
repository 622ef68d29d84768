module B = Rtl.Bitblast
module X = Rtl.Bexpr

type stats = {
  frames : int;
  clauses : int;
  ctis : int;
  sat_calls : int;
  sat : Solver.stats;
  reused : int;  (* queries answered by the warm persistent solver *)
}

type reason = Frames_exhausted | Solver_limit

(* A cube is a conjunction of state-bit literals [(var, value)], kept sorted
   by variable id. Counterexamples-to-induction are extracted as full
   minterms over the state bits and shrunk by inductive generalization. *)
type cube = (int * bool) list

type result =
  | Proved of stats * cube list
  | Violation of Trace.t * stats
  | Inconclusive of reason * stats

exception Limit_hit
exception Cex of int  (* transitions from an initial state to a bad state *)

let check ?(incremental = true) ?(max_conflicts = max_int) ?(max_frames = 32)
    ?(deadline = Deadline.none) ?constraint_signal nl ~ok_signal =
  let flat = B.flatten nl in
  let nstate =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.reg_vars
  in
  let ok_bits = flat.B.fn ok_signal in
  if Array.length ok_bits <> 1 then
    invalid_arg "Ic3.check: ok signal must be 1 bit";
  let bad0 = X.not_ ok_bits.(0) in
  let constraint0 =
    Option.map (fun c -> (flat.B.fn c).(0)) constraint_signal
  in
  (* next-state function per state bit, indexed by Bexpr variable id *)
  let next_of = Array.make (max nstate 1) X.fls in
  List.iter
    (fun (reg_name, (vars : int array)) ->
      let fns = List.assoc reg_name flat.B.next_fn in
      Array.iteri (fun i v -> next_of.(v) <- fns.(i)) vars)
    flat.B.reg_vars;
  let init_val = Array.make (max nstate 1) false in
  List.iter
    (fun (reg_name, (vars : int array)) ->
      let reset = flat.B.reset_of reg_name in
      Array.iteri (fun i v -> init_val.(v) <- Bitvec.get reset i) vars)
    flat.B.reg_vars;
  let contains_init c = List.for_all (fun (v, b) -> init_val.(v) = b) c in
  let excludes_init c = List.exists (fun (v, b) -> init_val.(v) <> b) c in
  (* delta-encoded frames: a clause proven at level [j] belongs to every
     F_i with i <= j, so F_i's clause set is the union of deltas.(i..) *)
  let deltas = Array.make (max_frames + 2) ([] : cube list) in
  let n_clauses = ref 0 and n_ctis = ref 0 and n_sat_calls = ref 0 in
  let sat = ref Solver.zero_stats in
  let acc_st s = sat := Solver.add_stats !sat s in
  let stats_at k =
    { frames = k; clauses = !n_clauses; ctis = !n_ctis;
      sat_calls = !n_sat_calls; sat = !sat;
      reused = (if incremental then max 0 (!n_sat_calls - 1) else 0) }
  in
  (* ------------------------------------------------------------------ *)
  (* Incremental query engine: ONE persistent solver for the whole run.
     The transition cone (bad, constraint, next-state functions) is
     encoded once; frame membership is switched by per-frame activation
     literals — clause [c] entering delta [i] adds (~act_i \/ ~c), and a
     query at level L assumes {act_j | j >= L}, which is exactly
     F_L = union of deltas L.. (copies left behind by forward propagation
     stay sound: frames only ever strengthen). Level-0 queries assume the
     init-state literals directly, per-query block cubes get a one-shot
     activation literal retired by a unit right after the solve. *)
  let inc_solver = Solver.create () in
  let inc_ctx = Tseitin.create ~on_clause:(Solver.add_clause inc_solver) () in
  let inc_tbl = Hashtbl.create 197 in
  let inc_var_map v =
    match Hashtbl.find_opt inc_tbl v with
    | Some cv -> cv
    | None ->
      let cv = Tseitin.fresh_var inc_ctx in
      Hashtbl.replace inc_tbl v cv;
      cv
  in
  let inc_state_lit v b =
    let sv = inc_var_map v in
    if b then sv else -sv
  in
  let inc_not_cube c = List.map (fun (v, b) -> -inc_state_lit v b) c in
  let act = Array.make (max_frames + 2) 0 in
  let act_lit j =
    if act.(j) = 0 then act.(j) <- Tseitin.fresh_var inc_ctx;
    act.(j)
  in
  let inc_bad_lit = ref 0 in
  let bad_lit () =
    if !inc_bad_lit = 0 then
      inc_bad_lit := Tseitin.lit_of_bexpr inc_ctx inc_var_map bad0;
    !inc_bad_lit
  in
  let inc_next_lit = Array.make (max nstate 1) 0 in
  let next_lit v =
    if inc_next_lit.(v) = 0 then
      inc_next_lit.(v) <- Tseitin.lit_of_bexpr inc_ctx inc_var_map next_of.(v);
    inc_next_lit.(v)
  in
  if incremental then (
    match constraint0 with
    | Some c ->
      Tseitin.assert_lit inc_ctx (Tseitin.lit_of_bexpr inc_ctx inc_var_map c)
    | None -> ());
  (* called whenever a cube lands in deltas.(i), including forward moves:
     the copy under the new frame's activation literal makes it visible to
     queries at that level *)
  let frame_clause_added i c =
    if incremental then
      Tseitin.add_clause inc_ctx (-act_lit i :: inc_not_cube c)
  in
  (* Solve under the target's literals, which [assume] places among the
     query's other assumptions: the bad literal, or per cube literal its
     next-state literal [next v], negated when the literal is false.
     [`Unsat g]: for a [`Next c] target, [g] keeps each literal of [c]
     whose next-state literal is in the failed-assumption core, matched by
     value, since one solver literal can stand for several cube literals;
     [[]] for [`Bad]. [`Sat] carries the model's state minterm, [state_var]
     naming each bit's solver variable. *)
  let ask solver ~state_var ~bad ~next ~assume target =
    let target_lits =
      match target with
      | `Bad -> [ bad () ]
      | `Next (c : cube) ->
        List.map
          (fun (v, b) ->
            let l = next v in
            if b then l else -l)
          c
    in
    let result, st =
      Solver.solve_assuming_stats ~max_conflicts
        ~should_stop:(Deadline.checker deadline) solver (assume target_lits)
    in
    acc_st st;
    match (result, target) with
    | Solver.Unsat, `Bad -> `Unsat []
    | Solver.Unsat, `Next c ->
      let core = Solver.failed_assumptions solver in
      `Unsat
        (List.fold_right2
           (fun lit l g -> if List.mem l core then lit :: g else g)
           c target_lits [])
    | Solver.Unknown, _ -> raise Limit_hit
    | Solver.Sat model, _ ->
      let value v =
        match state_var v with
        | Some cv -> cv <= Array.length model && model.(cv - 1)
        | None -> false
      in
      `Sat (List.init nstate (fun v -> (v, value v)))
  in
  let solve_query_inc ~level ~block_cube ~target =
    incr n_sat_calls;
    let assumptions = ref [] in
    if level = 0 then
      for v = nstate - 1 downto 0 do
        assumptions := inc_state_lit v init_val.(v) :: !assumptions
      done
    else
      for j = Array.length deltas - 1 downto level do
        assumptions := act_lit j :: !assumptions
      done;
    let retire = ref None in
    (match block_cube with
     | Some c ->
       let b = Tseitin.fresh_var inc_ctx in
       Tseitin.add_clause inc_ctx (-b :: inc_not_cube c);
       assumptions := b :: !assumptions;
       retire := Some b
     | None -> ());
    let r =
      ask inc_solver ~state_var:(Hashtbl.find_opt inc_tbl) ~bad:bad_lit
        ~next:next_lit
        ~assume:(fun lits -> List.rev_append lits !assumptions)
        target
    in
    (match !retire with
     | Some b -> Solver.add_clause inc_solver [ -b ]
     | None -> ());
    r
  in
  (* ------------------------------------------------------------------ *)
  (* Scratch query engine: one fresh solver and CNF per query — F_level
     (init units at level 0), the input constraint and an optional blocking
     clause, with the target (the bad literal or a successor cube) assumed.
     Kept as the differential oracle for the persistent-solver path. *)
  let solve_query_scratch ~level ~block_cube ~target =
    incr n_sat_calls;
    let solver = Solver.create () in
    let ctx = Tseitin.create ~on_clause:(Solver.add_clause solver) () in
    let tbl = Hashtbl.create 197 in
    let var_map v =
      match Hashtbl.find_opt tbl v with
      | Some cv -> cv
      | None ->
        let cv = Tseitin.fresh_var ctx in
        Hashtbl.replace tbl v cv;
        cv
    in
    let state_lit v b =
      let sv = var_map v in
      if b then sv else -sv
    in
    let not_cube c = List.map (fun (v, b) -> -state_lit v b) c in
    if level = 0 then
      for v = 0 to nstate - 1 do
        Tseitin.assert_lit ctx (state_lit v init_val.(v))
      done
    else
      for j = level to Array.length deltas - 1 do
        List.iter (fun c -> Tseitin.add_clause ctx (not_cube c)) deltas.(j)
      done;
    let lit e = Tseitin.lit_of_bexpr ctx var_map e in
    (match constraint0 with
     | Some c -> Tseitin.assert_lit ctx (lit c)
     | None -> ());
    (match block_cube with
     | Some c -> Tseitin.add_clause ctx (not_cube c)
     | None -> ());
    ask solver ~state_var:(Hashtbl.find_opt tbl)
      ~bad:(fun () -> lit bad0)
      ~next:(fun v -> lit next_of.(v))
      ~assume:Fun.id target
  in
  let solve_query ~level ~block_cube ~target =
    if incremental then solve_query_inc ~level ~block_cube ~target
    else solve_query_scratch ~level ~block_cube ~target
  in
  (* SAT(F_{level} /\ ~cube /\ constraint /\ T /\ cube'): is [cube] still
     reachable in one step from F_level states outside it? [`Unsat g]
     carries [g], the cube cut to its core literals. Any [g] between the
     core and the cube is relatively inductive: [~g] implies [~cube], and
     [g'] implies the core's assumptions. When [g] would hold the initial
     state, the cube's first literal that disagrees with it is put back. *)
  let rel_sat level cube =
    match solve_query ~level ~block_cube:(Some cube) ~target:(`Next cube) with
    | `Sat _ as sat -> sat
    | `Unsat g when excludes_init g -> `Unsat g
    | `Unsat g ->
      let keep = List.find (fun (v, b) -> init_val.(v) <> b) cube in
      `Unsat (List.filter (fun l -> l = keep || List.mem l g) cube)
  in
  (* inductive generalization of a cube already cut to its core: try
     dropping each literal still in it, keeping the cube relatively
     inductive and disjoint from the initial state; a successful drop
     leaves the candidate's own core *)
  let generalize s i =
    List.fold_left
      (fun g lit ->
        if not (List.mem lit g) then g
        else
          let cand = List.filter (fun l -> l <> lit) g in
          if cand = [] || not (excludes_init cand) then g
          else begin
            Deadline.check deadline;
            match rel_sat (i - 1) cand with
            | `Unsat g' -> g'
            | `Sat _ -> g
          end)
      s s
  in
  (* recursively block cube [s] at frame [i]; [depth] counts transitions
     from [s] to the bad state that spawned this proof obligation *)
  let rec block s i depth =
    Deadline.check deadline;
    if contains_init s then raise (Cex depth);
    assert (i > 0);
    let rec until_blocked () =
      match rel_sat (i - 1) s with
      | `Unsat g -> g
      | `Sat pred ->
        block pred (i - 1) (depth + 1);
        until_blocked ()
    in
    let g = until_blocked () in
    incr n_ctis;
    let g =
      Obs.Telemetry.span ~cat:"ic3" "generalize" (fun () -> generalize g i)
    in
    deltas.(i) <- g :: deltas.(i);
    frame_clause_added i g;
    incr n_clauses
  in
  (* F_j as a clause set: the union of deltas j.. *)
  let frame j =
    List.concat (Array.to_list (Array.sub deltas j (Array.length deltas - j)))
  in
  let k = ref 0 in
  let run () =
    (* depth-0 base case: a bad initial state never enters the frame loop *)
    (match solve_query ~level:0 ~block_cube:None ~target:`Bad with
     | `Sat _ -> raise (Cex 0)
     | `Unsat _ -> ());
    if nstate = 0 then Proved (stats_at 0, [])
    else begin
      let proved = ref None in
      k := 1;
      while !proved = None && !k <= max_frames do
        Deadline.check deadline;
        Beacon.report ~engine:"ic3" ~step:!k ~work:(!n_clauses);
        (* block every bad state reachable within F_k *)
        let rec drain () =
          match solve_query ~level:!k ~block_cube:None ~target:`Bad with
          | `Unsat _ -> ()
          | `Sat s ->
            Obs.Telemetry.span ~cat:"ic3" "block" (fun () -> block s !k 0);
            drain ()
        in
        drain ();
        (* push clauses forward while they stay relatively inductive; an
           emptied delta means F_i = F_{i+1}: an inductive fixpoint *)
        Obs.Telemetry.span ~cat:"ic3" "propagate" (fun () ->
            for i = 1 to !k - 1 do
              if !proved = None then begin
                Deadline.check deadline;
                let kept, moved =
                  List.partition
                    (fun c ->
                      match rel_sat i c with
                      | `Sat _ -> true
                      | `Unsat _ -> false)
                    deltas.(i)
                in
                deltas.(i) <- kept;
                deltas.(i + 1) <- moved @ deltas.(i + 1);
                List.iter (frame_clause_added (i + 1)) moved;
                if kept = [] then proved := Some (stats_at !k, frame (i + 1))
              end
            done);
        incr k
      done;
      match !proved with
      | Some (st, inv) -> Proved (st, inv)
      | None -> Inconclusive (Frames_exhausted, stats_at max_frames)
    end
  in
  match run () with
  | r -> r
  | exception Limit_hit -> Inconclusive (Solver_limit, stats_at !k)
  | exception Cex depth -> (
    (* the CTI chain is a concrete path from reset to a bad state, so a
       bounded check at exactly that depth must reproduce it — and yields
       a trace in the engine's standard replayable format *)
    match
      Bmc.check ~incremental ~max_conflicts ~deadline ?constraint_signal nl
        ~ok_signal ~depth
    with
    | Bmc.Violation (trace, bst) ->
      acc_st bst.Bmc.sat;
      Violation (trace, stats_at depth)
    | Bmc.Inconclusive bst ->
      acc_st bst.Bmc.sat;
      Inconclusive (Solver_limit, stats_at depth)
    | Bmc.No_violation_upto _ ->
      failwith "Ic3.check: CTI chain not confirmed by bounded check")
