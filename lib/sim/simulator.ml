module N = Rtl.Netlist
module E = Rtl.Expr

let lanes = Sys.int_size

(* The program works on one [int] array of slots, one slot per signal bit,
   each slot carrying that bit in every lane. Slots 0 and 1 hold the
   constants (every lane 0, every lane 1), the declared signals follow in
   [Netlist.signals] order, then one slot per register bit for the next
   state, then the temporaries. An instruction is [stride] ints: opcode,
   destination slot and up to three operand slots. *)
let stride = 5
let zero_slot = 0
let ones_slot = 1

let op_copy = 0
let op_not = 1
let op_and = 2
let op_or = 3
let op_xor = 4
let op_xnor = 5
let op_mux = 6 (* a ? b : c *)
let op_sum = 7 (* a ^ b ^ c *)
let op_maj = 8 (* majority of a, b, c: the carry of a full adder *)

let exec code v =
  let pc = ref 0 in
  let n = Array.length code in
  while !pc < n do
    let i = !pc in
    let a = v.(code.(i + 2)) and b = v.(code.(i + 3)) in
    let c = v.(code.(i + 4)) in
    v.(code.(i + 1)) <-
      (match code.(i) with
      | 0 -> a
      | 1 -> lnot a
      | 2 -> a land b
      | 3 -> a lor b
      | 4 -> a lxor b
      | 5 -> lnot (a lxor b)
      | 6 -> (a land b) lor (lnot a land c)
      | 7 -> a lxor b lxor c
      | _ -> (a land b) lor (c land (a lor b)));
    pc := i + stride
  done

(* ---- compilation ---- *)

type emitter = {
  mutable code : int array;
  mutable len : int;
  mutable slots : int;  (** the next free slot *)
}

let emit e opc d a b c =
  if e.len + stride > Array.length e.code then begin
    let code = Array.make (2 * Array.length e.code) 0 in
    Array.blit e.code 0 code 0 e.len;
    e.code <- code
  end;
  let k = e.len in
  e.code.(k) <- opc;
  e.code.(k + 1) <- d;
  e.code.(k + 2) <- a;
  e.code.(k + 3) <- b;
  e.code.(k + 4) <- c;
  e.len <- k + stride

(* a fresh temporary computed by one instruction *)
let op ?(b = zero_slot) ?(c = zero_slot) e opc a =
  let d = e.slots in
  e.slots <- d + 1;
  emit e opc d a b c;
  d

let fold e opc bits =
  let acc = ref bits.(0) in
  for i = 1 to Array.length bits - 1 do
    acc := op e opc !acc ~b:bits.(i)
  done;
  !acc

(* ripple carry: bit [i] of [a + b + carry] *)
let add e a b carry =
  let c = ref carry in
  Array.mapi
    (fun i ai ->
      let s = op e op_sum ai ~b:b.(i) ~c:!c in
      if i < Array.length a - 1 then c := op e op_maj ai ~b:b.(i) ~c:!c;
      s)
    a

(* [a < b] unsigned: the borrow out of [a - b], rippled from bit 0 *)
let less e a b =
  let borrow = ref zero_slot in
  Array.iteri
    (fun i ai ->
      let na = op e op_not ai in
      borrow := op e op_maj na ~b:b.(i) ~c:!borrow)
    a;
  !borrow

(* [lower e slot_of x] emits [x]'s instructions and returns the slot of each
   of its bits, least significant first. Concatenations and slices only
   remap slots. *)
let lower e slot_of x =
  let rec go = function
    | E.Const c ->
      Array.init (Bitvec.width c) (fun i ->
          if Bitvec.get c i then ones_slot else zero_slot)
    | E.Var name ->
      let s, w = slot_of name in
      Array.init w (fun i -> s + i)
    | E.Unop (E.Not, a) -> Array.map (op e op_not) (go a)
    | E.Unop (E.Red_and, a) -> [| fold e op_and (go a) |]
    | E.Unop (E.Red_or, a) -> [| fold e op_or (go a) |]
    | E.Unop (E.Red_xor, a) -> [| fold e op_xor (go a) |]
    | E.Binop (opr, a, b) -> (
      let a = go a in
      let b = go b in
      let bitwise opc = Array.mapi (fun i ai -> op e opc ai ~b:b.(i)) a in
      match opr with
      | E.And -> bitwise op_and
      | E.Or -> bitwise op_or
      | E.Xor -> bitwise op_xor
      | E.Xnor -> bitwise op_xnor
      | E.Add -> add e a b zero_slot
      | E.Sub -> add e a (Array.map (op e op_not) b) ones_slot
      | E.Eq -> [| fold e op_and (bitwise op_xnor) |]
      | E.Ne -> [| op e op_not (fold e op_and (bitwise op_xnor)) |]
      | E.Lt -> [| less e a b |]
      | E.Concat -> Array.append b a (* [a] is the high part *))
    | E.Mux (s, t, f) ->
      let s = (go s).(0) in
      let t = go t in
      let f = go f in
      Array.mapi (fun i ti -> op e op_mux s ~b:ti ~c:f.(i)) t
    | E.Slice (a, hi, lo) -> Array.sub (go a) lo (hi - lo + 1)
  in
  go x

(* [x]'s value, copied into the slots from [dst] on *)
let lower_into e slot_of ~dst x =
  Array.iteri
    (fun i s -> emit e op_copy (dst + i) s zero_slot zero_slot)
    (lower e slot_of x)

type t = {
  nl : N.t;
  index : (string, int * int) Hashtbl.t;  (** first slot and width *)
  settle_code : int array;
  clock_code : int array;  (** the next state, then its commit *)
  image : int array;  (** the constants and signals after [reset] *)
  v : int array;
  mutable cycles : int;
}

let create nl =
  (match N.validate nl with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Simulator.create: " ^ msg));
  Obs.Telemetry.span ~cat:"sim" "compile" @@ fun () ->
  let index = Hashtbl.create 197 in
  let n =
    List.fold_left
      (fun s (name, w) ->
        Hashtbl.replace index name (s, w);
        s + w)
      2 (N.signals nl)
  in
  let slot_of = Hashtbl.find index in
  (* both programs run to completion before anything reads a temporary, so
     they share the temporaries' slots *)
  let temps = n + N.state_bits nl in
  let emitter () = { code = Array.make 256 0; len = 0; slots = temps } in
  let settle_e = emitter () in
  List.iter
    (fun (lhs, rhs) -> lower_into settle_e slot_of ~dst:(fst (slot_of lhs)) rhs)
    nl.N.assigns;
  let clock_e = emitter () in
  let next = ref n in
  List.iter
    (fun (r : N.flat_reg) ->
      lower_into clock_e slot_of ~dst:!next r.next;
      next := !next + r.width)
    nl.N.regs;
  let image = Array.make n 0 in
  image.(ones_slot) <- -1;
  let next = ref n in
  List.iter
    (fun (r : N.flat_reg) ->
      let s = fst (slot_of r.name) in
      for i = 0 to r.width - 1 do
        emit clock_e op_copy (s + i) (!next + i) zero_slot zero_slot;
        if Bitvec.get r.reset_value i then image.(s + i) <- -1
      done;
      next := !next + r.width)
    nl.N.regs;
  let v = Array.make (max settle_e.slots clock_e.slots) 0 in
  v.(ones_slot) <- -1;
  { nl; index; settle_code = Array.sub settle_e.code 0 settle_e.len;
    clock_code = Array.sub clock_e.code 0 clock_e.len; image; v; cycles = 0 }

(* ---- running ---- *)

let settle t = exec t.settle_code t.v

let reset t =
  Array.blit t.image 0 t.v 0 (Array.length t.image);
  t.cycles <- 0;
  settle t

let input t ~what name width =
  match List.assoc_opt name t.nl.N.inputs with
  | None ->
    invalid_arg (Printf.sprintf "Simulator.%s: %s is not an input" what name)
  | Some w ->
    if width <> w then
      invalid_arg
        (Printf.sprintf "Simulator.%s: %s expects width %d, got %d" what name
           w width);
    fst (Hashtbl.find t.index name)

let drive t name x =
  let s = input t ~what:"drive" name (Bitvec.width x) in
  for i = 0 to Bitvec.width x - 1 do
    t.v.(s + i) <- (if Bitvec.get x i then -1 else 0)
  done

let drive_lanes t name words =
  let s = input t ~what:"drive_lanes" name (Array.length words) in
  Array.blit words 0 t.v s (Array.length words)

let drive_all t l = List.iter (fun (name, x) -> drive t name x) l

let peek_lanes t name i =
  match Hashtbl.find_opt t.index name with
  | Some (s, w) when 0 <= i && i < w -> t.v.(s + i)
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Simulator.peek_lanes: %s has no bit %d" name i)
  | None -> raise Not_found

let peek t name =
  match Hashtbl.find_opt t.index name with
  | Some (s, w) -> Bitvec.init w (fun i -> t.v.(s + i) land 1 <> 0)
  | None -> raise Not_found

let peek_bit t name = peek_lanes t name 0 land 1 <> 0

let clock t =
  exec t.clock_code t.v;
  t.cycles <- t.cycles + 1;
  settle t

let cycle t ins =
  drive_all t ins;
  settle t;
  clock t

let cycle_count t = t.cycles
let netlist t = t.nl
let inputs t = t.nl.N.inputs
