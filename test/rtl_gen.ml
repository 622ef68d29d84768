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
