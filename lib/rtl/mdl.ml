type dir = Input | Output

type port = { port_name : string; dir : dir; port_width : int }

type reg_class = Fsm | Counter | Datapath | Plain

type reg = {
  reg_name : string;
  reg_width : int;
  reset_value : Bitvec.t;
  next : Expr.t;
  reg_class : reg_class;
  parity_protected : bool;
}

type assign = { lhs : string; rhs : Expr.t }

type actual = Expr of Expr.t | Net of string

type instance = {
  inst_name : string;
  of_module : string;
  connections : (string * actual) list;
}

type t = {
  name : string;
  ports : port list;
  wires : (string * int) list;
  assigns : assign list;
  regs : reg list;
  instances : instance list;
  attrs : (string * string) list;
}

let create name =
  { name; ports = []; wires = []; assigns = []; regs = []; instances = [];
    attrs = [] }

let declared m name =
  List.exists (fun p -> p.port_name = name) m.ports
  || List.mem_assoc name m.wires
  || List.exists (fun r -> r.reg_name = name) m.regs

let check_fresh m name =
  if declared m name then
    invalid_arg (Printf.sprintf "Mdl: %s already declared in %s" name m.name)

let add_port m name dir width =
  check_fresh m name;
  if width <= 0 then invalid_arg "Mdl: port width must be positive";
  { m with ports = m.ports @ [ { port_name = name; dir; port_width = width } ] }

let add_input m name width = add_port m name Input width
let add_output m name width = add_port m name Output width

let add_wire m name width =
  check_fresh m name;
  if width <= 0 then invalid_arg "Mdl: wire width must be positive";
  { m with wires = m.wires @ [ (name, width) ] }

let add_assign m lhs rhs = { m with assigns = m.assigns @ [ { lhs; rhs } ] }

let add_reg ?(cls = Plain) ?(parity_protected = false) ?reset m name width next =
  check_fresh m name;
  if width <= 0 then invalid_arg "Mdl: reg width must be positive";
  let reset_value =
    match reset with Some r -> r | None -> Bitvec.zero width
  in
  if Bitvec.width reset_value <> width then
    invalid_arg "Mdl: reset value width mismatch";
  let r =
    { reg_name = name; reg_width = width; reset_value; next;
      reg_class = cls; parity_protected }
  in
  { m with regs = m.regs @ [ r ] }

let add_instance m inst_name ~of_module connections =
  if List.exists (fun i -> i.inst_name = inst_name) m.instances then
    invalid_arg (Printf.sprintf "Mdl: instance %s already present" inst_name);
  { m with instances = m.instances @ [ { inst_name; of_module; connections } ] }

let find_port m name = List.find_opt (fun p -> p.port_name = name) m.ports
let inputs m = List.filter (fun p -> p.dir = Input) m.ports
let outputs m = List.filter (fun p -> p.dir = Output) m.ports
let find_reg m name = List.find_opt (fun r -> r.reg_name = name) m.regs
let is_leaf m = m.instances = []

let declared_signals m =
  List.map (fun p -> (p.port_name, p.port_width)) m.ports
  @ m.wires
  @ List.map (fun r -> (r.reg_name, r.reg_width)) m.regs

let signal_width m name =
  match List.assoc_opt name (declared_signals m) with
  | Some w -> w
  | None -> raise Not_found

let widths m =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun (name, w) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name w)
    (declared_signals m);
  Hashtbl.find tbl

let append m parts =
  let all f = f m @ List.concat_map f parts in
  { m with
    wires = all (fun p -> p.wires);
    assigns = all (fun p -> p.assigns);
    regs = all (fun p -> p.regs) }

let map_regs f m = { m with regs = List.map f m.regs }

let map_exprs f m =
  let assigns = List.map (fun a -> { a with rhs = f a.rhs }) m.assigns in
  let regs = List.map (fun r -> { r with next = f r.next }) m.regs in
  let map_actual = function Expr e -> Expr (f e) | Net _ as a -> a in
  let instances =
    List.map
      (fun i ->
        { i with
          connections =
            List.map (fun (p, a) -> (p, map_actual a)) i.connections })
      m.instances
  in
  { m with assigns; regs; instances }
