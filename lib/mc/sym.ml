module N = Rtl.Netlist
module B = Rtl.Bitblast

type t = {
  man : Bdd.man;
  nl : N.t;
  flat : B.flat;
  nstate : int;
  ninputs : int;
  cur_of : int array;  (* state bit -> BDD var *)
  nxt_of : int array;
  inp_of : int array;  (* input bit -> BDD var *)
  next_fns : Bdd.t array;
  init : Bdd.t;
  bexpr_cache : (int, Bdd.t) Hashtbl.t;
  var_class : (int, [ `Cur of int | `Nxt of int | `Inp of int ]) Hashtbl.t;
}

(* Variable ordering matters enormously for capture registers (s' = input):
   if all inputs sat after all state variables, the intermediate
   conjunction of (s_i' <-> in_i) during image computation is exponential.
   We therefore place each state bit's current and next variables adjacent,
   immediately followed by the input bits its next-state function reads
   (first reader wins); leftover inputs go at the end. *)
let build_order flat nstate ninputs =
  let cur_of = Array.make (max nstate 1) (-1) in
  let nxt_of = Array.make (max nstate 1) (-1) in
  let inp_of = Array.make (max ninputs 1) (-1) in
  let next_pos = ref 0 in
  let place () =
    let p = !next_pos in
    incr next_pos;
    p
  in
  List.iter
    (fun (reg_name, (vars : int array)) ->
      let fns = List.assoc reg_name flat.B.next_fn in
      Array.iteri
        (fun i v ->
          cur_of.(v) <- place ();
          nxt_of.(v) <- place ();
          List.iter
            (fun support_var ->
              if support_var >= nstate then begin
                let j = support_var - nstate in
                if inp_of.(j) < 0 then inp_of.(j) <- place ()
              end)
            (Rtl.Bexpr.support fns.(i)))
        vars)
    flat.B.reg_vars;
  for j = 0 to ninputs - 1 do
    if inp_of.(j) < 0 then inp_of.(j) <- place ()
  done;
  (cur_of, nxt_of, inp_of)

let bdd_var_of_bexpr_var t v =
  if v < t.nstate then t.cur_of.(v) else t.inp_of.(v - t.nstate)

let rec bdd_of_bexpr t (e : Rtl.Bexpr.t) =
  match Hashtbl.find_opt t.bexpr_cache (Rtl.Bexpr.id e) with
  | Some b -> b
  | None ->
    let m = t.man in
    let b =
      match e.Rtl.Bexpr.node with
      | Rtl.Bexpr.True -> Bdd.one m
      | Rtl.Bexpr.False -> Bdd.zero m
      | Rtl.Bexpr.Var v -> Bdd.var m (bdd_var_of_bexpr_var t v)
      | Rtl.Bexpr.Not a -> Bdd.not_ m (bdd_of_bexpr t a)
      | Rtl.Bexpr.And (a, b) ->
        Bdd.and_ m (bdd_of_bexpr t a) (bdd_of_bexpr t b)
      | Rtl.Bexpr.Or (a, b) ->
        Bdd.or_ m (bdd_of_bexpr t a) (bdd_of_bexpr t b)
      | Rtl.Bexpr.Xor (a, b) ->
        Bdd.xor m (bdd_of_bexpr t a) (bdd_of_bexpr t b)
      | Rtl.Bexpr.Ite (c, th, el) ->
        Bdd.ite m (bdd_of_bexpr t c) (bdd_of_bexpr t th) (bdd_of_bexpr t el)
    in
    Hashtbl.replace t.bexpr_cache (Rtl.Bexpr.id e) b;
    b

let build ?node_limit ?interrupt nl =
  let flat = B.flatten nl in
  let nstate =
    List.fold_left (fun acc (_, vars) -> acc + Array.length vars) 0
      flat.B.reg_vars
  in
  let ninputs =
    List.fold_left (fun acc (_, vars) -> acc + Array.length vars) 0
      flat.B.input_vars
  in
  let cur_of, nxt_of, inp_of = build_order flat nstate ninputs in
  let man = Bdd.create ?node_limit ~nvars:((2 * nstate) + ninputs) () in
  (* install the interrupt before building next-state functions, so even
     construction of a runaway transition relation is cancellable *)
  (match interrupt with
   | Some f -> Bdd.set_interrupt man (Some f)
   | None -> ());
  let var_class = Hashtbl.create 197 in
  for i = 0 to nstate - 1 do
    Hashtbl.replace var_class cur_of.(i) (`Cur i);
    Hashtbl.replace var_class nxt_of.(i) (`Nxt i)
  done;
  for j = 0 to ninputs - 1 do
    Hashtbl.replace var_class inp_of.(j) (`Inp j)
  done;
  let t =
    { man; nl; flat; nstate; ninputs; cur_of; nxt_of; inp_of;
      next_fns = [||]; init = Bdd.one man; bexpr_cache = Hashtbl.create 997;
      var_class }
  in
  let next_fns = Array.make (max nstate 1) (Bdd.zero man) in
  List.iter
    (fun (reg_name, (_ : int array)) ->
      Array.iteri
        (fun i bexpr ->
          let state_bit = flat.B.var_of_bit reg_name i in
          next_fns.(state_bit) <- bdd_of_bexpr t bexpr)
        (List.assoc reg_name flat.B.next_fn))
    flat.B.reg_vars;
  let init =
    List.fold_left
      (fun acc (reg_name, (bits : int array)) ->
        let reset = flat.B.reset_of reg_name in
        let acc = ref acc in
        Array.iteri
          (fun i _ ->
            let v = cur_of.(flat.B.var_of_bit reg_name i) in
            let lit =
              if Bitvec.get reset i then Bdd.var man v else Bdd.nvar man v
            in
            acc := Bdd.and_ man !acc lit)
          bits;
        !acc)
      (Bdd.one man) flat.B.reg_vars
  in
  { t with next_fns; init }

let create ?node_limit ?interrupt nl =
  Obs.Telemetry.span ~cat:"bdd" "build" (fun () ->
      build ?node_limit ?interrupt nl)

let man t = t.man
let netlist t = t.nl
let num_state_bits t = t.nstate
let num_input_bits t = t.ninputs

let cur_vars t = Array.to_list (Array.sub t.cur_of 0 t.nstate)
let nxt_vars t = Array.to_list (Array.sub t.nxt_of 0 t.nstate)
let inp_vars t = Array.to_list (Array.sub t.inp_of 0 t.ninputs)

let cur_var t i =
  if i < 0 || i >= t.nstate then invalid_arg "Sym.cur_var";
  t.cur_of.(i)

let nxt_var t i =
  if i < 0 || i >= t.nstate then invalid_arg "Sym.nxt_var";
  t.nxt_of.(i)

let next_fn t i =
  if i < 0 || i >= t.nstate then invalid_arg "Sym.next_fn";
  t.next_fns.(i)

let init t = t.init

let signal_bdd t name = Array.map (bdd_of_bexpr t) (t.flat.B.fn name)

let signal_bit t name i =
  let bits = signal_bdd t name in
  if i < 0 || i >= Array.length bits then invalid_arg "Sym.signal_bit";
  bits.(i)

let state_bit_name t i =
  if i < 0 || i >= t.nstate then invalid_arg "Sym.state_bit_name";
  t.flat.B.bit_of_var i

let input_bit_name t j =
  if j < 0 || j >= t.ninputs then invalid_arg "Sym.input_bit_name";
  t.flat.B.bit_of_var (t.nstate + j)

let nxt_to_cur t b =
  (* state bit index of a next-state BDD var *)
  let state_of = Hashtbl.create 97 in
  Array.iteri (fun i v -> Hashtbl.replace state_of v i) t.nxt_of;
  Bdd.vector_compose t.man
    (fun v ->
      match Hashtbl.find_opt state_of v with
      | Some i when i < t.nstate -> Some (Bdd.var t.man t.cur_of.(i))
      | Some _ | None -> None)
    b

let classify_var t v =
  match Hashtbl.find_opt t.var_class v with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Sym.classify_var: unknown var %d" v)

let subst_next t b =
  Bdd.vector_compose t.man
    (fun v ->
      match Hashtbl.find_opt t.var_class v with
      | Some (`Cur i) -> Some t.next_fns.(i)
      | Some (`Nxt _ | `Inp _) | None -> None)
    b

let decode t ~state_bit_of entries assignment =
  let values = Hashtbl.create 17 in
  List.iter
    (fun (name, (vars : int array)) ->
      Hashtbl.replace values name (Array.make (Array.length vars) false))
    entries;
  List.iter
    (fun (bdd_var, b) ->
      match state_bit_of bdd_var with
      | Some bexpr_var ->
        let name, bit = t.flat.B.bit_of_var bexpr_var in
        (match Hashtbl.find_opt values name with
         | Some arr -> arr.(bit) <- b
         | None -> ())
      | None -> ())
    assignment;
  List.map
    (fun (name, _) ->
      let arr = Hashtbl.find values name in
      (name, Bitvec.init (Array.length arr) (fun i -> arr.(i))))
    entries

let state_values_of_assignment t assignment =
  let rev = Hashtbl.create 97 in
  Array.iteri
    (fun i v -> if i < t.nstate then Hashtbl.replace rev v i)
    t.cur_of;
  decode t ~state_bit_of:(fun v -> Hashtbl.find_opt rev v) t.flat.B.reg_vars
    assignment

let input_values_of_assignment t assignment =
  let rev = Hashtbl.create 97 in
  Array.iteri
    (fun j v -> if j < t.ninputs then Hashtbl.replace rev v (t.nstate + j))
    t.inp_of;
  decode t ~state_bit_of:(fun v -> Hashtbl.find_opt rev v) t.flat.B.input_vars
    assignment
