module B = Rtl.Bitblast
module X = Rtl.Bexpr

type stats = {
  k : int;
  cnf_vars : int;
  cnf_clauses : int;
  sat : Solver.stats;
  reused : int;  (* solves answered by a warm (already-populated) solver *)
}

type result =
  | Proved_by_induction of stats
  | Violation of Trace.t * stats
  | Inconclusive of stats

(* Incremental inductive-step context: frames 0..j with a FREE initial state
   (the frame-0 state bits are the registers' own Bexpr variables), encoded
   once into a live solver. At step k the query is "ok at frames 0..k-1,
   ~ok at frame k": the ok literals for frames < k are permanent units
   (they only ever grow as k does), and the frame-k ~ok is an assumption —
   so stepping from k to k+1 adds one frame, one unit, and keeps every
   learnt clause. *)
type step = {
  nstate : int;
  ninputs : int;
  ok0 : X.t;
  constraint0 : X.t option;
  next_of : X.t array;
  ctx : Tseitin.ctx;
  solver : Solver.t;
  cnf_var_of : (int, int) Hashtbl.t;
  mutable state : X.t array;  (* symbolic state of frame [next_frame] *)
  mutable next_frame : int;
  mutable ok_lits : (int * int) list;  (* (frame, literal), newest first *)
  mutable asserted_upto : int;  (* ok units added for frames < this *)
}

let create_step ?constraint_signal (flat : B.flat) ~nstate ~ninputs ~ok0 =
  let next_of = Array.make (max nstate 1) X.fls in
  List.iter
    (fun (reg_name, (vars : int array)) ->
      let fns = List.assoc reg_name flat.B.next_fn in
      Array.iteri (fun i v -> next_of.(v) <- fns.(i)) vars)
    flat.B.reg_vars;
  let constraint0 =
    Option.map (fun c -> (flat.B.fn c).(0)) constraint_signal
  in
  let solver = Solver.create () in
  let ctx = Tseitin.create ~on_clause:(Solver.add_clause solver) in
  { nstate; ninputs; ok0; constraint0; next_of; ctx; solver;
    cnf_var_of = Hashtbl.create 997;
    state = Array.init (max nstate 1) X.var; next_frame = 0; ok_lits = [];
    asserted_upto = 0 }

let step_var_map st v =
  match Hashtbl.find_opt st.cnf_var_of v with
  | Some cv -> cv
  | None ->
    let cv = Tseitin.fresh_var st.ctx in
    Hashtbl.replace st.cnf_var_of v cv;
    cv

let step_subst st frame state =
  X.substitute (fun v ->
      if v < st.nstate then state.(v)
      else X.var (st.nstate + (frame * st.ninputs) + (v - st.nstate)))

let step_encode_to st j =
  while st.next_frame <= j do
    let f = st.next_frame in
    let s = step_subst st f st.state in
    let ok_lit = Tseitin.lit_of_bexpr st.ctx (step_var_map st) (s st.ok0) in
    (match st.constraint0 with
     | Some c ->
       Tseitin.assert_lit st.ctx
         (Tseitin.lit_of_bexpr st.ctx (step_var_map st) (s c))
     | None -> ());
    st.ok_lits <- (f, ok_lit) :: st.ok_lits;
    st.state <- Array.map s st.next_of;
    st.next_frame <- f + 1
  done

(* The inductive step at depth k: UNSAT means any k consecutive satisfying
   states can only step to a satisfying state, which together with the base
   case proves the property for all time. Encoding and search are spanned as
   in [Bmc.solve_depth]. *)
let step_query ~max_conflicts ~should_stop st ~k =
  Obs.Telemetry.span ~cat:"sat" "encode" (fun () ->
      step_encode_to st k;
      for f = st.asserted_upto to k - 1 do
        Tseitin.assert_lit st.ctx (List.assoc f st.ok_lits)
      done;
      if k > st.asserted_upto then st.asserted_upto <- k);
  let nok = -List.assoc k st.ok_lits in
  Obs.Telemetry.span ~cat:"sat" "search" (fun () ->
      Solver.solve_assuming_stats ~max_conflicts ~should_stop st.solver
        [ nok ])

let check ?(incremental = true) ?(max_conflicts = max_int) ?(max_k = 20)
    ?(deadline = Deadline.none) ?constraint_signal nl ~ok_signal =
  let flat = B.flatten nl in
  let nstate =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.reg_vars
  in
  let ninputs =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.input_vars
  in
  let ok_bits = flat.B.fn ok_signal in
  if Array.length ok_bits <> 1 then
    invalid_arg "Induction.check: ok signal must be 1 bit";
  let ok0 = ok_bits.(0) in
  let mk_step () = create_step ?constraint_signal flat ~nstate ~ninputs ~ok0 in
  let mk_base () =
    Bmc.create_inc ~incremental ?constraint_signal nl ~ok_signal
  in
  (* in incremental mode one base-case unroller and one step-case solver
     live for the whole run; in scratch mode both are rebuilt per k *)
  let shared_base = if incremental then Some (mk_base ()) else None in
  let shared_step = if incremental then Some (mk_step ()) else None in
  let reused = ref 0 in
  (* SAT work accumulated across every base-case and step-case solve, so the
     reported counters cover the whole induction run, not just the last CNF *)
  let sat = ref Solver.zero_stats in
  let add_sat s = sat := Solver.add_stats !sat s in
  let mk_stats ~k ~cnf_vars ~cnf_clauses =
    { k; cnf_vars; cnf_clauses; sat = !sat; reused = !reused }
  in
  let should_stop = Deadline.checker deadline in
  let rec iterate k =
    if k > max_k then
      Inconclusive (mk_stats ~k:max_k ~cnf_vars:0 ~cnf_clauses:0)
    else begin
      Deadline.check deadline;
      Obs.Telemetry.progress ~engine:"k-induction" ~step:k
        ~work:!sat.Solver.conflicts;
      (* base case: frames < k were proven clean by earlier iterations, so
         only the new depth k needs solving *)
      let base =
        match shared_base with
        | Some b ->
          if k > 0 then incr reused;
          b
        | None -> mk_base ()
      in
      let base_outcome, base_sat =
        Bmc.solve_depth ~max_conflicts ~should_stop base ~depth:k
      in
      add_sat base_sat;
      let base_vars = Bmc.inc_cnf_vars base
      and base_clauses = Bmc.inc_cnf_clauses base in
      match base_outcome with
      | `Violation trace ->
        Violation
          (trace, mk_stats ~k ~cnf_vars:base_vars ~cnf_clauses:base_clauses)
      | `Unknown ->
        Inconclusive (mk_stats ~k ~cnf_vars:base_vars ~cnf_clauses:base_clauses)
      | `No_violation -> (
        let st =
          match shared_step with
          | Some s ->
            if k > 0 then incr reused;
            s
          | None -> mk_step ()
        in
        let result, step_sat =
          step_query ~max_conflicts ~should_stop st ~k:(k + 1)
        in
        add_sat step_sat;
        let step_vars = Tseitin.num_vars st.ctx
        and step_clauses = Tseitin.num_clauses st.ctx in
        match result with
        | Solver.Unsat ->
          Proved_by_induction
            (mk_stats ~k ~cnf_vars:step_vars ~cnf_clauses:step_clauses)
        | Solver.Sat _ -> iterate (k + 1)
        | Solver.Unknown ->
          Inconclusive
            (mk_stats ~k ~cnf_vars:step_vars ~cnf_clauses:step_clauses))
    end
  in
  iterate 0
