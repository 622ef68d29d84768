(* The dependency index: each signal's support — that of its driving
   assign, or of its next-state function if it is a register (an assign
   wins over a register of the same name) — and every declaration's place
   in one numbering: the inputs first, then the outputs, wires, assigns
   and registers, each in its list's order. It is only read once built, so
   one index serves any number of cones. *)
let reduce (nl : Netlist.t) =
  let deps = Hashtbl.create 97 in
  List.iter
    (fun (r : Netlist.flat_reg) ->
      Hashtbl.replace deps r.name (Expr.support r.next))
    nl.Netlist.regs;
  List.iter
    (fun (lhs, rhs) -> Hashtbl.replace deps lhs (Expr.support rhs))
    nl.Netlist.assigns;
  let at = Hashtbl.create 97 and next = ref 0 in
  (* a list's declarations and the first number they take *)
  let number name_of l =
    let all = Array.of_list l and base = !next in
    Array.iteri (fun i x -> Hashtbl.add at (name_of x) (base + i)) all;
    next := base + Array.length all;
    (all, base)
  in
  let inputs = number fst nl.Netlist.inputs in
  let outputs = number fst nl.Netlist.outputs in
  let wires = number fst nl.Netlist.wires in
  let assigns = number fst nl.Netlist.assigns in
  let regs = number (fun (r : Netlist.flat_reg) -> r.name) nl.Netlist.regs in
  let is_assign p =
    let all, base = assigns in
    base <= p && p < base + Array.length all
  in
  let declared name =
    List.exists (fun p -> not (is_assign p)) (Hashtbl.find_all at name)
  in
  fun ~roots ->
    List.iter (fun root -> if not (declared root) then raise Not_found) roots;
    (* fixpoint over the signal dependency graph *)
    let seen = Hashtbl.create 64 in
    let rec visit reached name =
      if Hashtbl.mem seen name then reached
      else begin
        Hashtbl.add seen name ();
        List.fold_left visit (name :: reached)
          (Option.value ~default:[] (Hashtbl.find_opt deps name))
      end
    in
    let reached =
      List.fold_left visit [] roots
      |> List.concat_map (Hashtbl.find_all at)
      |> List.sort Int.compare
    in
    (* a list's reached declarations, in declaration order *)
    let cone (all, base) =
      List.filter_map
        (fun p ->
          let i = p - base in
          if 0 <= i && i < Array.length all then Some all.(i) else None)
        reached
    in
    { nl with
      inputs = cone inputs;
      outputs = cone outputs;
      wires = cone wires;
      assigns = cone assigns;
      regs = cone regs }

let cone_size nl ~roots =
  let cone = reduce nl ~roots in
  (List.length cone.Netlist.regs, List.length cone.Netlist.assigns)
