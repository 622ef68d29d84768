type flat_reg = {
  name : string;
  width : int;
  reset_value : Bitvec.t;
  next : Expr.t;
  cls : Mdl.reg_class;
  parity_protected : bool;
}

type t = {
  top : string;
  inputs : (string * int) list;
  outputs : (string * int) list;
  wires : (string * int) list;
  assigns : (string * Expr.t) list;
  regs : flat_reg list;
}

exception Combinational_loop of string list

let signals nl =
  nl.inputs @ nl.outputs @ nl.wires
  @ List.map (fun r -> (r.name, r.width)) nl.regs

let signal_width nl name =
  match List.assoc_opt name (signals nl) with
  | Some w -> w
  | None -> raise Not_found

(* Kahn's algorithm over the "assign a reads b" graph. Registers and primary
   inputs break the cycle: a register's next-state expression may read any
   net without creating a combinational dependency. *)
let levelize nl =
  let tbl = Hashtbl.create 97 in
  List.iter (fun (lhs, rhs) -> Hashtbl.replace tbl lhs rhs) nl.assigns;
  let is_source name = not (Hashtbl.mem tbl name) in
  let state = Hashtbl.create 97 in
  (* state: 0 = unvisited, 1 = in progress, 2 = done *)
  let order = ref [] in
  let rec visit stack name =
    match Hashtbl.find_opt state name with
    | Some 2 -> ()
    | Some 1 -> raise (Combinational_loop (List.rev (name :: stack)))
    | Some _ | None ->
      if is_source name then Hashtbl.replace state name 2
      else begin
        Hashtbl.replace state name 1;
        let rhs = Hashtbl.find tbl name in
        List.iter (visit (name :: stack)) (Expr.support rhs);
        Hashtbl.replace state name 2;
        order := (name, rhs) :: !order
      end
  in
  List.iter (fun (lhs, _) -> visit [] lhs) nl.assigns;
  { nl with assigns = List.rev !order }

let validate nl =
  let sigs = signals nl in
  let widths = Hashtbl.create 97 in
  let dup = ref None in
  List.iter
    (fun (name, w) ->
      if Hashtbl.mem widths name then dup := Some name
      else Hashtbl.replace widths name w)
    sigs;
  match !dup with
  | Some name -> Error (Printf.sprintf "signal %s declared twice" name)
  | None ->
    let driven = Hashtbl.create 97 in
    List.iter (fun (r : flat_reg) -> Hashtbl.replace driven r.name ()) nl.regs;
    List.iter (fun (name, _) -> Hashtbl.replace driven name ()) nl.inputs;
    let env name =
      match Hashtbl.find_opt widths name with
      | Some w -> w
      | None -> invalid_arg (Printf.sprintf "undeclared signal %s" name)
    in
    let check_expr what lhs_width e =
      match Expr.width ~env e with
      | w ->
        if w <> lhs_width then
          Error (Printf.sprintf "%s: width %d, expression width %d" what
                   lhs_width w)
        else Ok ()
      | exception Invalid_argument msg -> Error (what ^ ": " ^ msg)
    in
    let multi = ref None in
    let rec check_assigns = function
      | [] -> Ok ()
      | (lhs, rhs) :: rest -> (
        if Hashtbl.mem driven lhs then begin
          multi := Some lhs;
          Error (Printf.sprintf "signal %s multiply driven" lhs)
        end
        else begin
          Hashtbl.replace driven lhs ();
          match Hashtbl.find_opt widths lhs with
          | None -> Error (Printf.sprintf "assign to undeclared signal %s" lhs)
          | Some w -> (
            match check_expr ("assign " ^ lhs) w rhs with
            | Error _ as e -> e
            | Ok () -> check_assigns rest)
        end)
    in
    let check_regs () =
      List.fold_left
        (fun acc (r : flat_reg) ->
          match acc with
          | Error _ -> acc
          | Ok () -> check_expr ("reg " ^ r.name) r.width r.next)
        (Ok ()) nl.regs
    in
    let check_outputs () =
      List.fold_left
        (fun acc (name, _) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            if Hashtbl.mem driven name then Ok ()
            else Error (Printf.sprintf "output %s undriven" name))
        (Ok ()) nl.outputs
    in
    let ( >>= ) r f = match r with Error _ as e -> e | Ok () -> f () in
    check_assigns nl.assigns >>= check_regs >>= check_outputs

let state_bits nl = List.fold_left (fun acc r -> acc + r.width) 0 nl.regs
