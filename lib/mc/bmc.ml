module B = Rtl.Bitblast
module X = Rtl.Bexpr

type stats = {
  depth : int;
  cnf_vars : int;
  cnf_clauses : int;
  sat : Solver.stats;
  reused : int;  (* solves answered by a warm (already-populated) solver *)
}

type result =
  | No_violation_upto of int * stats
  | Violation of Trace.t * stats
  | Inconclusive of stats

(* An incremental unrolling context: one live Tseitin encoder streaming into
   one live CDCL solver, plus the symbolic state needed to extend the
   unrolling by one more frame. Frame [d]'s bad literal is asserted as an
   assumption (never a clause), so depth d+1 simply encodes one more frame
   and re-solves — everything the solver learnt at depth d is kept. The
   Tseitin gate encoding is biconditional, so assuming the frame-d bad
   literal is exactly "the property fails at frame d"; with frames < d
   already proven unreachable-bad, this query is equivalent to the
   monolithic "fails anywhere in 0..d" disjunction, and no activation
   clauses need retiring.

   The symbolic state of frame k is an array of single leaves: reset
   constants at frame 0, and for k > 0 one fresh Bexpr variable per state
   bit, tied to its transition function by biconditional clauses when frame
   k-1 is encoded. Carrying leaves (rather than the substituted transition
   trees) keeps each frame's encoding work proportional to the cone size —
   substituted trees grow with the depth and made unrolling to depth d cost
   O(d^2) overall, which is exactly the work a scratch re-encode does and
   so capped the incremental speedup near 1x. *)
type inc = {
  flat : B.flat;
  nstate : int;
  ninputs : int;
  bad0 : X.t;
  constraint0 : X.t option;
  next_of : X.t array;
  ctx : Tseitin.ctx;
  solver : Solver.t;
  cnf_var_of : (int, int) Hashtbl.t;
  mutable frame_states : X.t array list;
      (* per-frame symbolic state, newest first; head = frame [next_depth] *)
  mutable next_depth : int;   (* first frame not yet encoded *)
  mutable bad_lits : (int * int) list;  (* (frame, literal), newest first *)
}

let frame_input_var inc k j = inc.nstate + (k * inc.ninputs) + j

(* Bexpr variable standing for state bit [j] of frame [k] (k >= 1; frame 0
   is the reset constants). Negative ids, so they can never collide with
   the non-negative flat-netlist / frame-input ids. *)
let frame_state_var inc k j = -(1 + ((k - 1) * inc.nstate) + j)

let create_inc ?constraint_signal nl ~ok_signal =
  let flat = B.flatten nl in
  let nstate =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.reg_vars
  in
  let ninputs =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.input_vars
  in
  let ok_bits = flat.B.fn ok_signal in
  if Array.length ok_bits <> 1 then
    invalid_arg "Bmc.check: ok signal must be 1 bit";
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
  (* frame 0 state = reset constants *)
  let state0 =
    Array.init nstate (fun v ->
        let name, bit = flat.B.bit_of_var v in
        X.of_bool (Bitvec.get (flat.B.reset_of name) bit))
  in
  let solver = Solver.create () in
  let ctx = Tseitin.create ~on_clause:(Solver.add_clause solver) () in
  { flat; nstate; ninputs; bad0; constraint0; next_of; ctx; solver;
    cnf_var_of = Hashtbl.create 997; frame_states = [ state0 ];
    next_depth = 0; bad_lits = [] }

let var_map inc v =
  match Hashtbl.find_opt inc.cnf_var_of v with
  | Some cv -> cv
  | None ->
    let cv = Tseitin.fresh_var inc.ctx in
    Hashtbl.replace inc.cnf_var_of v cv;
    cv

(* Encode frames [next_depth .. depth]: per frame, the bad literal (kept
   aside for assumption solving), the constraint as a permanent unit, and
   the next frame's state variables tied to the substituted transition
   functions. The substitution memo is shared across all of the frame's
   roots (bad, constraint, every next-state function), so logic feeding
   several of them is rewritten — and then Tseitin-encoded — once. Frame
   state enters the substitution as single leaves, so every substituted
   tree is the size of the one-step cone regardless of depth. *)
let encode_to inc depth =
  while inc.next_depth <= depth do
    let k = inc.next_depth in
    let state = List.hd inc.frame_states in
    let leaf_of v =
      if v < inc.nstate then state.(v)
      else X.var (frame_input_var inc k (v - inc.nstate))
    in
    let roots =
      (inc.bad0 :: (match inc.constraint0 with Some c -> [ c ] | None -> []))
      @ Array.to_list inc.next_of
    in
    let lit e = Tseitin.lit_of_bexpr inc.ctx (var_map inc) e in
    (match X.substitute_many leaf_of roots with
     | [] -> assert false
     | bad :: rest ->
       let bad_lit = lit bad in
       inc.bad_lits <- (k, bad_lit) :: inc.bad_lits;
       let nexts =
         match (inc.constraint0, rest) with
         | Some _, c :: nexts ->
           Tseitin.assert_lit inc.ctx (lit c);
           nexts
         | Some _, [] -> assert false
         | None, nexts -> nexts
       in
       let next_state =
         List.mapi
           (fun j fe ->
             match (fe : X.t).node with
             (* already a leaf (constant, or an alias of an existing frame
                variable): carry it directly, no binding needed *)
             | X.True | X.False | X.Var _ -> fe
             | _ ->
               let sv = X.var (frame_state_var inc (k + 1) j) in
               let sl = lit sv and fl = lit fe in
               Tseitin.add_clause inc.ctx [ -sl; fl ];
               Tseitin.add_clause inc.ctx [ sl; -fl ];
               sv)
           nexts
       in
       inc.frame_states <- Array.of_list next_state :: inc.frame_states);
    inc.next_depth <- k + 1
  done

let inc_cnf_vars inc = Tseitin.num_vars inc.ctx
let inc_cnf_clauses inc = Tseitin.num_clauses inc.ctx

(* Rebuild the violating trace from a model: frame inputs are read off
   their CNF variables, and each frame's state leaves (a constant, a frame
   state variable, or an input alias) evaluate in O(1) under the model. *)
let trace_of_model inc model ~fail_frame =
  let bexpr_var_value v =
    match Hashtbl.find_opt inc.cnf_var_of v with
    | Some cv -> cv <= Array.length model && model.(cv - 1)
    | None -> false
  in
  let frames = Array.of_list (List.rev inc.frame_states) in
  let cycles = ref [] in
  for k = 0 to fail_frame do
    let inputs =
      List.map
        (fun (name, (vars : int array)) ->
          ( name,
            Bitvec.init (Array.length vars) (fun j ->
                bexpr_var_value
                  (frame_input_var inc k (vars.(j) - inc.nstate))) ))
        inc.flat.B.input_vars
    in
    let state_values =
      List.map
        (fun (name, (vars : int array)) ->
          ( name,
            Bitvec.init (Array.length vars) (fun j ->
                X.eval bexpr_var_value frames.(k).(vars.(j))) ))
        inc.flat.B.reg_vars
    in
    cycles := { Trace.step = k; inputs; state = state_values } :: !cycles
  done;
  List.rev !cycles

(* one span each for encoding and search, so a profile splits the engine's
   time between them *)
let solve_depth ?(max_conflicts = max_int) ?(should_stop = fun () -> false)
    inc ~depth =
  Obs.Telemetry.span ~cat:"sat" "encode" (fun () -> encode_to inc depth);
  let bad = List.assoc depth inc.bad_lits in
  let result, st =
    Obs.Telemetry.span ~cat:"sat" "search" (fun () ->
        Solver.solve_assuming_stats ~max_conflicts ~should_stop inc.solver
          [ bad ])
  in
  match result with
  | Solver.Unsat -> (`No_violation, st)
  | Solver.Unknown -> (`Unknown, st)
  | Solver.Sat model ->
    (`Violation (trace_of_model inc model ~fail_frame:depth), st)

let check ?(incremental = true) ?(max_conflicts = max_int)
    ?(deadline = Deadline.none) ?constraint_signal nl ~ok_signal ~depth =
  let shared =
    if incremental then Some (create_inc ?constraint_signal nl ~ok_signal)
    else None
  in
  let sat = ref Solver.zero_stats in
  let reused = ref 0 in
  let mk_stats ~depth inc =
    { depth; cnf_vars = inc_cnf_vars inc; cnf_clauses = inc_cnf_clauses inc;
      sat = !sat; reused = !reused }
  in
  let rec go d =
    if d > depth then
      (* depth < 0: nothing checked at all *)
      match shared with
      | Some inc -> No_violation_upto (depth, mk_stats ~depth inc)
      | None ->
        No_violation_upto
          ( depth,
            { depth; cnf_vars = 0; cnf_clauses = 0; sat = Solver.zero_stats;
              reused = 0 } )
    else begin
      Deadline.check deadline;
      let inc =
        match shared with
        | Some inc ->
          if d > 0 then incr reused;
          inc
        | None -> create_inc ?constraint_signal nl ~ok_signal
      in
      Beacon.report ~engine:"bmc" ~step:d ~work:(inc_cnf_vars inc);
      let outcome, st =
        solve_depth ~max_conflicts ~should_stop:(Deadline.checker deadline)
          inc ~depth:d
      in
      sat := Solver.add_stats !sat st;
      match outcome with
      | `No_violation ->
        if d = depth then No_violation_upto (depth, mk_stats ~depth inc)
        else go (d + 1)
      | `Unknown -> Inconclusive (mk_stats ~depth:d inc)
      | `Violation trace -> Violation (trace, mk_stats ~depth:d inc)
    end
  in
  go 0
