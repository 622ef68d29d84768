let rename f (nl : Netlist.t) =
  let port (name, w) = (f name, w) in
  { Netlist.top = nl.Netlist.top;
    inputs = List.map port nl.Netlist.inputs;
    outputs = List.map port nl.Netlist.outputs;
    wires = List.map port nl.Netlist.wires;
    assigns =
      List.map (fun (lhs, rhs) -> (f lhs, Expr.rename f rhs)) nl.Netlist.assigns;
    regs =
      List.map
        (fun (r : Netlist.flat_reg) ->
          { r with Netlist.name = f r.Netlist.name;
            next = Expr.rename f r.Netlist.next })
        nl.Netlist.regs }

let canonical_map (nl : Netlist.t) =
  let tbl = Hashtbl.create 97 in
  let fresh = ref 0 in
  let bind name =
    if not (Hashtbl.mem tbl name) then begin
      Hashtbl.add tbl name ("s" ^ string_of_int !fresh);
      incr fresh
    end
  in
  List.iter (fun (n, _) -> bind n) nl.Netlist.inputs;
  List.iter (fun (n, _) -> bind n) nl.Netlist.outputs;
  List.iter (fun (r : Netlist.flat_reg) -> bind r.Netlist.name) nl.Netlist.regs;
  (* assign targets in topological order, then any undriven leftovers in
     declaration order, so the numbering never depends on original names *)
  List.iter (fun (lhs, _) -> bind lhs) nl.Netlist.assigns;
  List.iter (fun (n, _) -> bind n) nl.Netlist.wires;
  fun name -> match Hashtbl.find_opt tbl name with Some c -> c | None -> name

(* The text of the canonical netlist, [rename (canonical_map nl) nl],
   printed straight into one buffer: names are mapped as they are
   printed, so the renamed copy is never built. *)
let fingerprint ?(salt = "") ?(roots = []) nl =
  let map = canonical_map nl in
  let b = Buffer.create 4096 in
  let chr = Buffer.add_char b and str = Buffer.add_string b in
  let int n = str (string_of_int n) in
  str "salt:";
  str salt;
  chr '\n';
  List.iter
    (fun r ->
      str "root:";
      str (map r);
      chr '\n')
    roots;
  let port tag (n, w) =
    str tag;
    str (map n);
    chr ':';
    int w;
    chr '\n'
  in
  List.iter (port "in:") nl.Netlist.inputs;
  List.iter (port "out:") nl.Netlist.outputs;
  List.iter
    (fun (r : Netlist.flat_reg) ->
      str "reg:";
      str (map r.Netlist.name);
      chr ':';
      int r.Netlist.width;
      chr ':';
      str (Bitvec.to_string r.Netlist.reset_value);
      chr ':';
      str
        (match r.Netlist.cls with
         | Mdl.Fsm -> "fsm"
         | Mdl.Counter -> "cnt"
         | Mdl.Datapath -> "dp"
         | Mdl.Plain -> "plain");
      chr ':';
      str (string_of_bool r.Netlist.parity_protected);
      chr ':';
      Expr.bprint ~name:map b r.Netlist.next;
      chr '\n')
    nl.Netlist.regs;
  List.iter
    (fun (lhs, rhs) ->
      str "asn:";
      str (map lhs);
      chr '=';
      Expr.bprint ~name:map b rhs;
      chr '\n')
    nl.Netlist.assigns;
  Digest.to_hex (Digest.string (Buffer.contents b))
