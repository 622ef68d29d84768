module String_set = Set.Make (String)

(* The dependency index: each signal's support — that of its driving
   assign, or of its next-state function if it is a register (an assign
   wins over a register of the same name) — and the declared signals. It is
   only read once built, so one index serves any number of cones. *)
let reduce (nl : Netlist.t) =
  let deps = Hashtbl.create 97 in
  List.iter
    (fun (r : Netlist.flat_reg) ->
      Hashtbl.replace deps r.name (Expr.support r.next))
    nl.Netlist.regs;
  List.iter
    (fun (lhs, rhs) -> Hashtbl.replace deps lhs (Expr.support rhs))
    nl.Netlist.assigns;
  let declared = Hashtbl.create 97 in
  List.iter
    (fun (name, _) -> Hashtbl.replace declared name ())
    (Netlist.signals nl);
  fun ~roots ->
    List.iter
      (fun root -> if not (Hashtbl.mem declared root) then raise Not_found)
      roots;
    (* fixpoint over the signal dependency graph *)
    let rec visit seen name =
      if String_set.mem name seen then seen
      else
        List.fold_left visit
          (String_set.add name seen)
          (Option.value ~default:[] (Hashtbl.find_opt deps name))
    in
    let keep = List.fold_left visit String_set.empty roots in
    let mem name = String_set.mem name keep in
    { nl with
      inputs = List.filter (fun (name, _) -> mem name) nl.Netlist.inputs;
      outputs = List.filter (fun (name, _) -> mem name) nl.Netlist.outputs;
      wires = List.filter (fun (name, _) -> mem name) nl.Netlist.wires;
      assigns = List.filter (fun (lhs, _) -> mem lhs) nl.Netlist.assigns;
      regs =
        List.filter (fun (r : Netlist.flat_reg) -> mem r.name) nl.Netlist.regs
    }

let cone_size nl ~roots =
  let cone = reduce nl ~roots in
  (List.length cone.Netlist.regs, List.length cone.Netlist.assigns)
