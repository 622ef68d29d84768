(* The interpreter that Sim.Simulator's compiled program replaced: values
   in a string-keyed table, every assign evaluated with Rtl.Expr.eval on
   every cycle. It stays as the reference the compiled simulator is checked
   against, signal by signal and cycle by cycle. *)

module N = Rtl.Netlist

type t = {
  nl : N.t;
  values : (string, Bitvec.t) Hashtbl.t;
  mutable cycles : int;
}

let zero_signals t =
  List.iter
    (fun (name, w) -> Hashtbl.replace t.values name (Bitvec.zero w))
    (N.signals t.nl)

let create nl =
  (match N.validate nl with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Simulator.create: " ^ msg));
  let t = { nl; values = Hashtbl.create 197; cycles = 0 } in
  zero_signals t;
  t

let env t name =
  match Hashtbl.find_opt t.values name with
  | Some v -> v
  | None -> raise Not_found

let settle t =
  List.iter
    (fun (lhs, rhs) ->
      Hashtbl.replace t.values lhs (Rtl.Expr.eval ~env:(env t) rhs))
    t.nl.N.assigns

let reset t =
  zero_signals t;
  List.iter
    (fun (r : N.flat_reg) -> Hashtbl.replace t.values r.name r.reset_value)
    t.nl.N.regs;
  t.cycles <- 0;
  settle t

let drive t name v =
  match List.assoc_opt name t.nl.N.inputs with
  | None -> invalid_arg (Printf.sprintf "Simulator.drive: %s is not an input" name)
  | Some w ->
    if Bitvec.width v <> w then
      invalid_arg
        (Printf.sprintf "Simulator.drive: %s expects width %d, got %d" name w
           (Bitvec.width v));
    Hashtbl.replace t.values name v

let drive_all t l = List.iter (fun (name, v) -> drive t name v) l

let peek t name =
  match Hashtbl.find_opt t.values name with
  | Some v -> v
  | None -> raise Not_found

let peek_bit t name = Bitvec.get (peek t name) 0

let clock t =
  (* compute all next values from the settled state, then commit *)
  let nexts =
    List.map
      (fun (r : N.flat_reg) -> (r.name, Rtl.Expr.eval ~env:(env t) r.next))
      t.nl.N.regs
  in
  List.iter (fun (name, v) -> Hashtbl.replace t.values name v) nexts;
  t.cycles <- t.cycles + 1;
  settle t

let cycle t ins =
  drive_all t ins;
  settle t;
  clock t

let cycle_count t = t.cycles
let netlist t = t.nl
let inputs t = t.nl.N.inputs
