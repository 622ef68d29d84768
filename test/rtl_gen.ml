(* Random word-level expressions, shared by the expression tests and the
   frame-encoder tests. *)

module E = Rtl.Expr

(* [expr leaf depth]: and, or, xor, add, sub, not and mux, up to [depth]
   operators deep, over the 4-bit expressions [leaf] draws. *)
let expr leaf depth =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (2, map2 (fun a b -> E.(a &: b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> E.(a |: b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> E.(a ^: b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> E.(a +: b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> E.(a -: b)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun a -> E.(!:a)) (self (depth - 1)));
            (1,
             map3
               (fun c a b -> E.mux (E.bit c 0) a b)
               (self (depth - 1)) (self (depth - 1)) (self (depth - 1))) ])
    depth

(* [any depth]: every constructor, up to [depth] operators deep, widths
   unchecked, for the printers: constants of widths 1 to 70, signals,
   every unop and binop (concatenation among them), mux, and slices with
   [hi = lo] and with [hi > lo]. *)
let any depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (2, int_range 1 70 >>= fun w st -> E.const (Bitvec.random st w));
        (1, oneofl [ E.var "a"; E.var "b"; E.var "data_q" ]) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        frequency
          [ (1, leaf);
            (2,
             map2
               (fun op e -> E.Unop (op, e))
               (oneofl E.[ Not; Red_and; Red_or; Red_xor ])
               sub);
            (4,
             map3
               (fun op a b -> E.Binop (op, a, b))
               (oneofl
                  E.[ And; Or; Xor; Xnor; Add; Sub; Eq; Ne; Lt; Concat ])
               sub sub);
            (1, map3 E.mux sub sub sub);
            (2,
             map3
               (fun e lo d -> E.Slice (e, lo + d, lo))
               sub (int_bound 69)
               (oneof [ return 0; int_range 1 8 ])) ])
    depth

(* [typed signals w depth]: a well-formed expression of width [w] over
   [signals] (name, width), up to [depth] operators deep. Every constructor
   can appear: comparisons and reductions give 1-bit values, which reach
   wider results through concatenations and muxes; their operands are
   sometimes wider than 62 bits. *)
let rec typed signals w depth st =
  let int_in lo hi = lo + Random.State.int st (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let sub w = typed signals w (depth - 1) st in
  let operand_width () =
    if Random.State.int st 4 = 0 then int_in 60 70 else int_in 1 8
  in
  let leaf () =
    match List.filter (fun (_, sw) -> sw >= w) signals with
    | [] -> E.Const (Bitvec.random st w)
    | _ when Random.State.int st 4 = 0 -> E.Const (Bitvec.random st w)
    | fitting ->
      let name, sw = pick fitting in
      if sw = w then E.Var name
      else
        let lo = Random.State.int st (sw - w + 1) in
        E.Slice (E.Var name, lo + w - 1, lo)
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int st (if w = 1 then 11 else 8) with
    | 0 -> leaf ()
    | 1 -> E.Unop (E.Not, sub w)
    | 2 -> E.Binop (pick E.[ And; Or; Xor; Xnor ], sub w, sub w)
    | 3 -> E.Binop (pick E.[ Add; Sub ], sub w, sub w)
    | 4 -> E.Mux (sub 1, sub w, sub w)
    | 5 ->
      let extra = int_in 0 3 in
      let lo = int_in 0 extra in
      E.Slice (sub (w + extra), lo + w - 1, lo)
    | 6 | 7 when w >= 2 ->
      let hi = int_in 1 (w - 1) in
      E.Binop (E.Concat, sub hi, sub (w - hi))
    | 6 | 7 ->
      E.Unop (pick E.[ Red_and; Red_or; Red_xor ], sub (operand_width ()))
    | _ ->
      let w' = operand_width () in
      E.Binop (pick E.[ Eq; Ne; Lt ], sub w', sub w')

(* A random well-formed, levelized netlist: one to three inputs, one to
   four wires each reading only inputs, registers and earlier wires, one
   output assigned last, and one to three registers whose next states read
   any signal. The first register is 63 to 70 bits wide. *)
let netlist st =
  let int_in lo hi = lo + Random.State.int st (hi - lo + 1) in
  let width () =
    if Random.State.int st 5 = 0 then int_in 60 70 else int_in 1 8
  in
  let named prefix n w =
    List.init n (fun i -> (Printf.sprintf "%s%d" prefix i, w i))
  in
  let inputs = named "i" (int_in 1 3) (fun _ -> int_in 1 8) in
  let reg_widths =
    named "r" (int_in 1 3) (fun i -> if i = 0 then int_in 63 70 else width ())
  in
  let wires = named "w" (int_in 1 4) (fun _ -> width ()) in
  let output = ("o", int_in 1 8) in
  let sources = inputs @ reg_widths in
  let assigns, _ =
    List.fold_left
      (fun (acc, visible) (name, w) ->
        ((name, typed visible w 3 st) :: acc, (name, w) :: visible))
      ([], sources) (wires @ [ output ])
  in
  let all = sources @ wires @ [ output ] in
  let regs =
    List.map
      (fun (name, w) ->
        { Rtl.Netlist.name; width = w; reset_value = Bitvec.random st w;
          next = typed all w 3 st; cls = Rtl.Mdl.Plain;
          parity_protected = false })
      reg_widths
  in
  { Rtl.Netlist.top = "gen"; inputs; outputs = [ output ]; wires;
    assigns = List.rev assigns; regs }

let print_netlist (nl : Rtl.Netlist.t) =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, w) -> Printf.bprintf b "input %s[%d]\n" name w)
    nl.Rtl.Netlist.inputs;
  List.iter
    (fun (r : Rtl.Netlist.flat_reg) ->
      Printf.bprintf b "reg %s[%d] reset %s next %s\n" r.name r.width
        (Bitvec.to_string r.reset_value)
        (E.to_string r.next))
    nl.Rtl.Netlist.regs;
  List.iter
    (fun (lhs, rhs) ->
      Printf.bprintf b "%s[%d] = %s\n" lhs
        (Rtl.Netlist.signal_width nl lhs)
        (E.to_string rhs))
    nl.Rtl.Netlist.assigns;
  Buffer.contents b
