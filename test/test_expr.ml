(* Word-level expression layer: width inference, evaluation, substitution,
   and agreement between direct evaluation and bit-blasted evaluation. *)

module E = Rtl.Expr
module X = Rtl.Bexpr

let bv = Bitvec.of_string

let env_of bindings name =
  match List.assoc_opt name bindings with
  | Some v -> v
  | None -> Alcotest.failf "unbound signal %s" name

let widths_of bindings name = Bitvec.width (env_of bindings name)

let test_width () =
  let env = widths_of [ ("a", bv "0000"); ("b", bv "0000"); ("s", bv "0") ] in
  Alcotest.(check int) "var" 4 (E.width ~env (E.var "a"));
  Alcotest.(check int) "and" 4 (E.width ~env E.(var "a" &: var "b"));
  Alcotest.(check int) "eq" 1 (E.width ~env E.(var "a" ==: var "b"));
  Alcotest.(check int) "red" 1 (E.width ~env (E.red_xor (E.var "a")));
  Alcotest.(check int) "concat" 8 (E.width ~env (E.concat (E.var "a") (E.var "b")));
  Alcotest.(check int) "slice" 2 (E.width ~env (E.slice (E.var "a") ~hi:2 ~lo:1));
  Alcotest.(check int) "mux" 4
    (E.width ~env (E.mux (E.var "s") (E.var "a") (E.var "b")));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Expr.width: operand width mismatch (4 vs 1)") (fun () ->
      ignore (E.width ~env E.(var "a" &: var "s")));
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Expr.width: slice out of range") (fun () ->
      ignore (E.width ~env (E.slice (E.var "a") ~hi:4 ~lo:0)))

let test_eval () =
  let env = env_of [ ("a", bv "1100"); ("b", bv "1010"); ("s", bv "1") ] in
  let check name expected e =
    Alcotest.(check string) name expected (Bitvec.to_string (E.eval ~env e))
  in
  check "and" "1000" E.(var "a" &: var "b");
  check "or" "1110" E.(var "a" |: var "b");
  check "xor" "0110" E.(var "a" ^: var "b");
  check "xnor" "1001" (E.Binop (E.Xnor, E.var "a", E.var "b"));
  check "not" "0011" E.(!:(var "a"));
  check "add" "0110" E.(var "a" +: var "b");
  check "sub" "0010" E.(var "a" -: var "b");
  check "eq false" "0" E.(var "a" ==: var "b");
  check "ne true" "1" E.(var "a" <>: var "b");
  check "lt" "0" E.(var "a" <: var "b");
  check "mux takes then" "1100" (E.mux (E.var "s") (E.var "a") (E.var "b"));
  check "red_xor" "0" (E.red_xor (E.var "a"));
  check "red_or" "1" (E.red_or (E.var "a"));
  check "red_and" "0" (E.red_and (E.var "a"));
  check "slice" "11" (E.slice (E.var "a") ~hi:3 ~lo:2);
  check "bit" "1" (E.bit (E.var "a") 2);
  check "concat" "11001010" (E.concat (E.var "a") (E.var "b"))

let test_support_subst () =
  let e = E.(var "a" &: (var "b" |: var "a")) in
  Alcotest.(check (list string)) "support dedups" [ "a"; "b" ] (E.support e);
  let renamed = E.rename (fun s -> "x_" ^ s) e in
  Alcotest.(check (list string)) "rename" [ "x_a"; "x_b" ] (E.support renamed);
  let substituted = E.subst (fun s -> if s = "a" then Some E.tru else None) e in
  Alcotest.(check (list string)) "subst removes" [ "b" ] (E.support substituted)

let test_pp () =
  Alcotest.(check string) "pp" "(a & b)" (E.to_string E.(var "a" &: var "b"));
  Alcotest.(check string) "pp slice" "a[3:1]"
    (E.to_string (E.slice (E.var "a") ~hi:3 ~lo:1))

(* random expression generator over two 4-bit signals and 4-bit constants *)
let gen_expr =
  let open QCheck.Gen in
  let leaf4 = oneof [ return (E.var "a"); return (E.var "b");
                      map (fun n -> E.of_int ~width:4 (n land 15)) small_nat ] in
  Rtl_gen.expr leaf4 3

let arb_expr = QCheck.make ~print:E.to_string gen_expr

(* bit-blasting agrees with direct evaluation *)
let prop_bitblast_agrees =
  QCheck.Test.make ~name:"bitblast agrees with eval" ~count:300
    (QCheck.pair arb_expr (QCheck.pair (QCheck.int_bound 15) (QCheck.int_bound 15)))
    (fun (e, (va, vb)) ->
      let a = Bitvec.of_int ~width:4 va and b = Bitvec.of_int ~width:4 vb in
      let env name = if name = "a" then a else b in
      let direct = E.eval ~env e in
      let var_ids = [ ("a", [| 0; 1; 2; 3 |]); ("b", [| 4; 5; 6; 7 |]) ] in
      let blast_env name = Array.map X.var (List.assoc name var_ids) in
      let bits = Rtl.Bitblast.expr ~env:blast_env e in
      let assign v = if v < 4 then Bitvec.get a v else Bitvec.get b (v - 4) in
      let blasted =
        Bitvec.init (Array.length bits) (fun i -> X.eval assign bits.(i))
      in
      Bitvec.equal direct blasted)

let prop_rename_roundtrip =
  QCheck.Test.make ~name:"rename roundtrip" ~count:100 arb_expr (fun e ->
      let there = E.rename (fun s -> "p_" ^ s) e in
      let back =
        E.rename (fun s -> String.sub s 2 (String.length s - 2)) there
      in
      E.equal e back)

let () =
  Alcotest.run "expr"
    [ ("unit",
       [ Alcotest.test_case "width inference" `Quick test_width;
         Alcotest.test_case "evaluation" `Quick test_eval;
         Alcotest.test_case "support and subst" `Quick test_support_subst;
         Alcotest.test_case "printing" `Quick test_pp ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_bitblast_agrees; prop_rename_roundtrip ]) ]
