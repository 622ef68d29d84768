module E = Rtl.Expr
module M = Rtl.Mdl

type info = {
  mdl : M.t;
  ec_port : string;
  ed_port : string;
  entities : Entity.t list;
}

let apply ?(ec_port = "I_ERR_INJ_C") ?(ed_port = "I_ERR_INJ_D") m =
  let entities = Entity.discover m in
  if entities = [] then
    invalid_arg
      (Printf.sprintf "Transform.apply: %s has no integrity entities"
         m.M.name);
  List.iter
    (fun p ->
      match M.find_port m p with
      | Some _ ->
        invalid_arg
          (Printf.sprintf "Transform.apply: %s already has port %s" m.M.name p)
      | None -> ())
    [ ec_port; ed_port ];
  let n = List.length entities in
  let dwidth =
    List.fold_left (fun acc (e : Entity.t) -> max acc e.width) 1 entities
  in
  let m = M.add_input m ec_port n in
  let m = M.add_input m ed_port dwidth in
  let index_of =
    let tbl = Hashtbl.create 7 in
    List.iteri (fun i (e : Entity.t) -> Hashtbl.replace tbl e.reg_name i)
      entities;
    fun name -> Hashtbl.find_opt tbl name
  in
  let inject (r : M.reg) =
    match index_of r.reg_name with
    | None -> r
    | Some i ->
      let sel = if n = 1 then E.var ec_port else E.bit (E.var ec_port) i in
      let data =
        if dwidth = r.reg_width then E.var ed_port
        else E.slice (E.var ed_port) ~hi:(r.reg_width - 1) ~lo:0
      in
      { r with next = E.mux sel data r.next }
  in
  let m = M.map_regs inject m in
  { mdl = m; ec_port; ed_port; entities }

let entity_index info (e : Entity.t) =
  let rec go i = function
    | [] -> invalid_arg "Transform: unknown entity"
    | (x : Entity.t) :: rest -> if x.reg_name = e.reg_name then i else go (i + 1) rest
  in
  go 0 info.entities

let control_bit info e =
  let n = List.length info.entities in
  if n = 1 then E.var info.ec_port
  else E.bit (E.var info.ec_port) (entity_index info e)

let data_slice info (e : Entity.t) =
  let dwidth =
    List.fold_left (fun acc (x : Entity.t) -> max acc x.width) 1 info.entities
  in
  if dwidth = e.width then E.var info.ed_port
  else E.slice (E.var info.ed_port) ~hi:(e.width - 1) ~lo:0

let tie_offs info =
  let n = List.length info.entities in
  let dwidth =
    List.fold_left (fun acc (e : Entity.t) -> max acc e.width) 1 info.entities
  in
  [ (info.ec_port, M.Expr (E.of_int ~width:n 0));
    (info.ed_port, M.Expr (E.of_int ~width:dwidth 0)) ]
