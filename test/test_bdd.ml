(* ROBDD engine: canonicity, boolean algebra, quantifiers, composition,
   counting — checked against brute-force truth tables. *)

let nvars = 6

(* a random boolean-function AST we can both evaluate and build as a BDD *)
type form =
  | Var of int
  | Not of form
  | And of form * form
  | Or of form * form
  | Xor of form * form

let rec eval_form assign = function
  | Var i -> assign i
  | Not f -> not (eval_form assign f)
  | And (f, g) -> eval_form assign f && eval_form assign g
  | Or (f, g) -> eval_form assign f || eval_form assign g
  | Xor (f, g) -> eval_form assign f <> eval_form assign g

let rec build man = function
  | Var i -> Bdd.var man i
  | Not f -> Bdd.not_ man (build man f)
  | And (f, g) -> Bdd.and_ man (build man f) (build man g)
  | Or (f, g) -> Bdd.or_ man (build man f) (build man g)
  | Xor (f, g) -> Bdd.xor man (build man f) (build man g)

let rec pp_form ppf = function
  | Var i -> Format.fprintf ppf "v%d" i
  | Not f -> Format.fprintf ppf "!%a" pp_form f
  | And (f, g) -> Format.fprintf ppf "(%a&%a)" pp_form f pp_form g
  | Or (f, g) -> Format.fprintf ppf "(%a|%a)" pp_form f pp_form g
  | Xor (f, g) -> Format.fprintf ppf "(%a^%a)" pp_form f pp_form g

let gen_form =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then map (fun i -> Var i) (int_range 0 (nvars - 1))
      else
        frequency
          [ (2, map (fun i -> Var i) (int_range 0 (nvars - 1)));
            (2, map2 (fun a b -> And (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Or (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Xor (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun a -> Not a) (self (depth - 1))) ])
    4

let arb_form = QCheck.make ~print:(Format.asprintf "%a" pp_form) gen_form

let assignments =
  List.init (1 lsl nvars) (fun mask i -> mask lsr i land 1 = 1)

let semantically_equal f g =
  List.for_all (fun a -> eval_form a f = eval_form a g) assignments

let test_terminals () =
  let man = Bdd.create ~nvars () in
  Alcotest.(check bool) "one" true (Bdd.is_one (Bdd.one man));
  Alcotest.(check bool) "zero" true (Bdd.is_zero (Bdd.zero man));
  Alcotest.(check bool) "not one" true (Bdd.is_zero (Bdd.not_ man (Bdd.one man)));
  let v = Bdd.var man 0 in
  Alcotest.(check bool) "v & !v" true
    (Bdd.is_zero (Bdd.and_ man v (Bdd.nvar man 0)));
  Alcotest.(check bool) "v | !v" true
    (Bdd.is_one (Bdd.or_ man v (Bdd.nvar man 0)));
  Alcotest.(check bool) "canonicity" true
    (Bdd.equal (Bdd.and_ man v (Bdd.var man 1)) (Bdd.and_ man (Bdd.var man 1) v))

let test_quantifiers () =
  let man = Bdd.create ~nvars () in
  let v0 = Bdd.var man 0 and v1 = Bdd.var man 1 in
  let f = Bdd.and_ man v0 v1 in
  Alcotest.(check bool) "exists x0 (x0&x1) = x1" true
    (Bdd.equal (Bdd.exists man [ 0 ] f) v1);
  Alcotest.(check bool) "forall x0 (x0&x1) = 0" true
    (Bdd.is_zero (Bdd.forall man [ 0 ] f));
  let g = Bdd.or_ man v0 v1 in
  Alcotest.(check bool) "forall x0 (x0|x1) = x1" true
    (Bdd.equal (Bdd.forall man [ 0 ] g) v1);
  Alcotest.(check bool) "and_exists = exists of and" true
    (Bdd.equal (Bdd.and_exists man [ 0 ] v0 g)
       (Bdd.exists man [ 0 ] (Bdd.and_ man v0 g)))

let test_compose () =
  let man = Bdd.create ~nvars () in
  let v1 = Bdd.var man 1 and v2 = Bdd.var man 2 in
  let f = Bdd.xor man (Bdd.var man 0) v1 in
  let sub v = if v = 0 then Some (Bdd.and_ man v2 v1) else None in
  let composed = Bdd.vector_compose man sub f in
  let expected = Bdd.xor man (Bdd.and_ man v2 v1) v1 in
  Alcotest.(check bool) "compose" true (Bdd.equal composed expected)

let test_counting () =
  let man = Bdd.create ~nvars () in
  let v0 = Bdd.var man 0 and v1 = Bdd.var man 1 in
  Alcotest.(check (float 0.01)) "sat_count var" (2.0 ** 5.0)
    (Bdd.sat_count man v0);
  Alcotest.(check (float 0.01)) "sat_count and" (2.0 ** 4.0)
    (Bdd.sat_count man (Bdd.and_ man v0 v1));
  Alcotest.(check (float 0.01)) "sat_count one" (2.0 ** 6.0)
    (Bdd.sat_count man (Bdd.one man))

let test_any_sat () =
  let man = Bdd.create ~nvars () in
  let f = Bdd.and_ man (Bdd.var man 1) (Bdd.nvar man 3) in
  let cube = Bdd.any_sat man f in
  Alcotest.(check bool) "assignment satisfies" true
    (Bdd.eval man
       (fun v -> match List.assoc_opt v cube with Some b -> b | None -> false)
       f);
  Alcotest.(check bool) "zero raises" true
    (match Bdd.any_sat man (Bdd.zero man) with
     | _ -> false
     | exception Not_found -> true)

let test_node_limit () =
  let man = Bdd.create ~node_limit:10 ~nvars () in
  Alcotest.(check bool) "limit fires" true
    (match
       List.fold_left
         (fun acc i -> Bdd.xor man acc (Bdd.var man i))
         (Bdd.zero man)
         [ 0; 1; 2; 3; 4; 5 ]
     with
     | _ -> false
     | exception Bdd.Node_limit -> true)

let test_restrict_support () =
  let man = Bdd.create ~nvars () in
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 2) in
  Alcotest.(check (list int)) "support" [ 0; 2 ] (Bdd.support man f);
  let r = Bdd.restrict man 0 true f in
  Alcotest.(check bool) "restrict" true (Bdd.equal r (Bdd.nvar man 2));
  Alcotest.(check (list int)) "support after restrict" [ 2 ] (Bdd.support man r)

let test_fold_paths () =
  let man = Bdd.create ~nvars () in
  let f = Bdd.or_ man (Bdd.var man 0) (Bdd.var man 1) in
  let paths = Bdd.fold_paths man f ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "two 1-paths" 2 paths

(* properties against truth tables *)

let prop_build_correct =
  QCheck.Test.make ~name:"BDD agrees with truth table" ~count:300 arb_form
    (fun form ->
      let man = Bdd.create ~nvars () in
      let b = build man form in
      List.for_all (fun a -> Bdd.eval man a b = eval_form a form) assignments)

let prop_canonical =
  QCheck.Test.make ~name:"semantic equality iff same node" ~count:200
    (QCheck.pair arb_form arb_form) (fun (f, g) ->
      let man = Bdd.create ~nvars () in
      let bf = build man f and bg = build man g in
      Bdd.equal bf bg = semantically_equal f g)

let prop_exists_correct =
  QCheck.Test.make ~name:"exists quantification" ~count:200
    (QCheck.pair arb_form (QCheck.int_bound (nvars - 1))) (fun (f, v) ->
      let man = Bdd.create ~nvars () in
      let b = Bdd.exists man [ v ] (build man f) in
      List.for_all
        (fun a ->
          let expected =
            eval_form (fun i -> if i = v then false else a i) f
            || eval_form (fun i -> if i = v then true else a i) f
          in
          Bdd.eval man a b = expected)
        assignments)

let prop_sat_count =
  QCheck.Test.make ~name:"sat_count equals truth-table count" ~count:200
    arb_form (fun f ->
      let man = Bdd.create ~nvars () in
      let b = build man f in
      let expected =
        List.length (List.filter (fun a -> eval_form a f) assignments)
      in
      abs_float (Bdd.sat_count man b -. float_of_int expected) < 0.5)

let prop_and_exists_correct =
  QCheck.Test.make ~name:"and_exists is relational product" ~count:150
    (QCheck.pair arb_form arb_form) (fun (f, g) ->
      let man = Bdd.create ~nvars () in
      let bf = build man f and bg = build man g in
      Bdd.equal
        (Bdd.and_exists man [ 0; 2; 4 ] bf bg)
        (Bdd.exists man [ 0; 2; 4 ] (Bdd.and_ man bf bg)))

(* ---- many calls on one manager: no memo entry outlives its call ---- *)

(* truth tables over the [nvars] variables, indexed by assignment mask *)
let npoints = 1 lsl nvars
let bit x i = (x lsr i) land 1 = 1
let table_of f = Array.init npoints (fun x -> eval_form (bit x) f)
let mask_of vars = List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 vars

(* operations on a pool of functions, named by their index in the pool *)
type op =
  | Exists of int list * int
  | Forall of int list * int
  | And_exists of int list * int * int
  | Compose of int option list * int  (** per variable: a function or keep *)
  | Restrict of int * bool * int
  | Support of int

let pp_op ppf =
  let vars =
    Format.(
      pp_print_list ~pp_sep:(fun ppf () -> pp_print_char ppf ',') pp_print_int)
  in
  let sub = function Some j -> "f" ^ string_of_int j | None -> "_" in
  function
  | Exists (vs, i) -> Format.fprintf ppf "exists[%a] f%d" vars vs i
  | Forall (vs, i) -> Format.fprintf ppf "forall[%a] f%d" vars vs i
  | And_exists (vs, i, j) ->
    Format.fprintf ppf "and_exists[%a] f%d f%d" vars vs i j
  | Compose (subs, i) ->
    Format.fprintf ppf "compose[%s] f%d"
      (String.concat "," (List.map sub subs))
      i
  | Restrict (v, b, i) -> Format.fprintf ppf "restrict v%d=%b f%d" v b i
  | Support i -> Format.fprintf ppf "support f%d" i

let pool_size = 3

let gen_op =
  let open QCheck.Gen in
  let vars =
    map
      (fun mask -> List.filter (bit mask) (List.init nvars Fun.id))
      (int_bound (npoints - 1))
  in
  let f = int_bound (pool_size - 1) in
  oneof
    [ map2 (fun vs i -> Exists (vs, i)) vars f;
      map2 (fun vs i -> Forall (vs, i)) vars f;
      map3 (fun vs i j -> And_exists (vs, i, j)) vars f f;
      map2 (fun sub i -> Compose (sub, i)) (list_repeat nvars (opt f)) f;
      map3 (fun v b i -> Restrict (v, b, i)) (int_bound (nvars - 1)) bool f;
      map (fun i -> Support i) f ]

let gen_ops = QCheck.Gen.(list_size (int_range 2 10) gen_op)
let gen_pool = QCheck.Gen.list_repeat pool_size gen_form

let print_pool forms =
  String.concat "; "
    (List.mapi (fun i f -> Format.asprintf "f%d = %a" i pp_form f) forms)

(* quantify [vars] out of a table: every (or some) extension holds *)
let quantified ~all vars t =
  let vm = mask_of vars in
  Array.init npoints (fun x ->
      let base = x land lnot vm in
      let hits = ref 0 and total = ref 0 in
      for s = 0 to npoints - 1 do
        if s land lnot vm = 0 then begin
          incr total;
          if t.(base lor s) then incr hits
        end
      done;
      if all then !hits = !total else !hits > 0)

(* run one operation on a manager's pool and check it against the tables *)
let op_ok man pool tables op =
  let agrees b t =
    List.for_all (fun x -> Bdd.eval man (bit x) b = t.(x))
      (List.init npoints Fun.id)
  in
  match op with
  | Exists (vs, i) ->
    agrees (Bdd.exists man vs pool.(i)) (quantified ~all:false vs tables.(i))
  | Forall (vs, i) ->
    agrees (Bdd.forall man vs pool.(i)) (quantified ~all:true vs tables.(i))
  | And_exists (vs, i, j) ->
    agrees
      (Bdd.and_exists man vs pool.(i) pool.(j))
      (quantified ~all:false vs
         (Array.map2 ( && ) tables.(i) tables.(j)))
  | Compose (sub, i) ->
    let sub = Array.of_list sub in
    let image x =
      mask_of
        (List.filter
           (fun v ->
             match sub.(v) with Some j -> tables.(j).(x) | None -> bit x v)
           (List.init nvars Fun.id))
    in
    agrees
      (Bdd.vector_compose man (fun v -> Option.map (Array.get pool) sub.(v))
         pool.(i))
      (Array.init npoints (fun x -> tables.(i).(image x)))
  | Restrict (v, b, i) ->
    let set x = if b then x lor (1 lsl v) else x land lnot (1 lsl v) in
    agrees (Bdd.restrict man v b pool.(i))
      (Array.init npoints (fun x -> tables.(i).(set x)))
  | Support i ->
    let t = tables.(i) in
    Bdd.support man pool.(i)
    = List.filter
        (fun v ->
          List.exists
            (fun x -> t.(x) <> t.(x lxor (1 lsl v)))
            (List.init npoints Fun.id))
        (List.init nvars Fun.id)

let fresh_pool forms =
  let man = Bdd.create ~nvars () in
  (man, Array.of_list (List.map (build man) forms),
   Array.of_list (List.map table_of forms))

let prop_call_sequence =
  QCheck.Test.make ~name:"call sequences on one manager" ~count:200
    (QCheck.make
       ~print:(fun (forms, ops) ->
         print_pool forms ^ " | "
         ^ String.concat "; " (List.map (Format.asprintf "%a" pp_op) ops))
       QCheck.Gen.(pair gen_pool gen_ops))
    (fun (forms, ops) ->
      let man, pool, tables = fresh_pool forms in
      List.for_all (op_ok man pool tables) ops)

let prop_two_managers =
  QCheck.Test.make ~name:"call sequences on two interleaved managers"
    ~count:100
    (QCheck.make
       ~print:(fun (a, b, ops) ->
         print_pool a ^ " | " ^ print_pool b ^ " | "
         ^ String.concat "; "
             (List.map
                (fun (left, op) ->
                  Format.asprintf "%s:%a" (if left then "a" else "b") pp_op op)
                ops))
       QCheck.Gen.(
         triple gen_pool gen_pool
           (list_size (int_range 2 10) (pair bool gen_op))))
    (fun (a, b, ops) ->
      let a = fresh_pool a and b = fresh_pool b in
      List.for_all
        (fun (left, op) ->
          let man, pool, tables = if left then a else b in
          op_ok man pool tables op)
        ops)

(* An operation cut short by the interrupt leaves the manager usable:
   once the callback returns false, every answer is right again. The
   interrupted call is a vector_compose that builds ~2^(n+1) nodes; the
   identity compose of the same argument right after it must not see its
   entries. *)
let test_answers_after_interrupt () =
  let n = 13 in
  let m = Bdd.create ~nvars:(2 * n) () in
  let pairs pair =
    List.fold_left
      (fun acc i ->
        let a, b = pair i in
        Bdd.or_ m acc (Bdd.and_ m (Bdd.var m a) (Bdd.var m b)))
      (Bdd.zero m) (List.init n Fun.id)
  in
  (* x2i ∧ x2i+1 is small under the index order; xi ∧ xn+i is not *)
  let adjacent = pairs (fun i -> (2 * i, (2 * i) + 1)) in
  let spread v =
    Some (Bdd.var m (if v mod 2 = 0 then v / 2 else n + (v / 2)))
  in
  Bdd.set_interrupt m (Some (fun () -> true));
  (match Bdd.vector_compose m spread adjacent with
   | _ -> Alcotest.fail "expected the interrupt"
   | exception Bdd.Interrupted -> ());
  Bdd.set_interrupt m (Some (fun () -> false));
  Alcotest.(check bool) "identity compose" true
    (Bdd.equal (Bdd.vector_compose m (fun _ -> None) adjacent) adjacent);
  let spread_direct = pairs (fun i -> (i, n + i)) in
  let composed = Bdd.vector_compose m spread adjacent in
  Alcotest.(check bool) "compose after the interrupt" true
    (Bdd.equal composed spread_direct);
  (* no pair both true: 3 choices per pair *)
  Alcotest.(check (float 0.0)) "sat_count"
    (2.0 ** float_of_int (2 * n) -. (3.0 ** float_of_int n))
    (Bdd.sat_count m composed);
  let second_half =
    List.fold_left (fun acc i -> Bdd.or_ m acc (Bdd.var m (n + i))) (Bdd.zero m)
      (List.init n Fun.id)
  in
  Alcotest.(check bool) "exists after the interrupt" true
    (Bdd.equal (Bdd.exists m (List.init n Fun.id) composed) second_half);
  (* with x1 .. xn-1 false only the pair (x0, xn) is left *)
  let only_first = Bdd.cube m (List.init (n - 1) (fun i -> (i + 1, false))) in
  Alcotest.(check bool) "and_exists after the interrupt" true
    (Bdd.equal
       (Bdd.and_exists m (List.init n Fun.id) composed only_first)
       (Bdd.var m n))

(* [size] and [support] mark nodes with a one-byte walk stamp: a node
   last seen many walks ago must not read as seen once the stamp wraps *)
let test_visit_marks_wrap () =
  let man = Bdd.create ~nvars () in
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
  let g = Bdd.and_ man (Bdd.var man 2) (Bdd.nvar man 3) in
  let size_g = Bdd.size man g in
  for gap = 0 to 300 do
    for _ = 1 to gap do
      ignore (Bdd.size man f)
    done;
    Alcotest.(check int) "size" size_g (Bdd.size man g);
    Alcotest.(check (list int)) "support" [ 2; 3 ] (Bdd.support man g)
  done

(* POBDD layer *)

let prop_pobdd_windows_disjoint =
  QCheck.Test.make ~name:"POBDD windows partition the space" ~count:50
    (QCheck.make (QCheck.Gen.return ())) (fun () ->
      let man = Bdd.create ~nvars () in
      let windows = Pobdd.windows man [ 0; 2; 4 ] in
      let union =
        List.fold_left (fun acc w -> Bdd.or_ man acc w) (Bdd.zero man) windows
      in
      let pairwise_disjoint =
        List.for_all
          (fun w1 ->
            List.for_all
              (fun w2 ->
                Bdd.equal w1 w2 || Bdd.is_zero (Bdd.and_ man w1 w2))
              windows)
          windows
      in
      Bdd.is_one union && pairwise_disjoint)

let test_choose_splitting () =
  let man = Bdd.create ~nvars () in
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 4) in
  let vars = Pobdd.choose_splitting_vars man ~candidates:[ 0; 1; 4 ] ~k:2 f in
  Alcotest.(check int) "asked for two" 2 (List.length vars)

let () =
  Alcotest.run "bdd"
    [ ("unit",
       [ Alcotest.test_case "terminals and algebra" `Quick test_terminals;
         Alcotest.test_case "quantifiers" `Quick test_quantifiers;
         Alcotest.test_case "vector compose" `Quick test_compose;
         Alcotest.test_case "sat counting" `Quick test_counting;
         Alcotest.test_case "any_sat" `Quick test_any_sat;
         Alcotest.test_case "node limit" `Quick test_node_limit;
         Alcotest.test_case "restrict and support" `Quick test_restrict_support;
         Alcotest.test_case "fold paths" `Quick test_fold_paths;
         Alcotest.test_case "answers after an interrupt" `Quick
           test_answers_after_interrupt;
         Alcotest.test_case "visit marks across stamp wraps" `Quick
           test_visit_marks_wrap ]);
      ("pobdd",
       [ Alcotest.test_case "splitting vars" `Quick test_choose_splitting;
         QCheck_alcotest.to_alcotest prop_pobdd_windows_disjoint ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_build_correct; prop_canonical; prop_exists_correct;
           prop_sat_count; prop_and_exists_correct; prop_call_sequence;
           prop_two_managers ]) ]
