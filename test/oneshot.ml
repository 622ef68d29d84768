(* One-shot SAT solving over clause lists, the reference the solver tests
   compare against: each call builds a fresh solver, so repeated solves of
   the same clauses are bit-for-bit deterministic. Literals are DIMACS
   integers over the variables [1 .. nvars]. *)

(* [solve ~nvars clauses] and the work counters of that one solve; a model
   is padded to [nvars] variables when trailing ones occur in no clause *)
let solve ?max_conflicts ?should_stop ~nvars clauses =
  let t = Solver.create () in
  List.iter (Solver.add_clause t) clauses;
  match Solver.solve_assuming_stats ?max_conflicts ?should_stop t [] with
  | Solver.Sat m, st when Array.length m < nvars ->
    (Solver.Sat (Array.init nvars (fun v -> v < Array.length m && m.(v))), st)
  | r -> r

(* [eval clauses assign]: every clause holds under the total assignment
   [assign] of the variables *)
let eval clauses assign =
  let lit_true lit = if lit > 0 then assign lit else not (assign (-lit)) in
  List.for_all (List.exists lit_true) clauses
