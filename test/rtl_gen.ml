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
