type unop = Not | Red_and | Red_or | Red_xor
type binop = And | Or | Xor | Xnor | Add | Sub | Eq | Ne | Lt | Concat

type t =
  | Const of Bitvec.t
  | Var of string
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t
  | Slice of t * int * int

let const b = Const b
let of_int ~width n = Const (Bitvec.of_int ~width n)
let var s = Var s
let tru = of_int ~width:1 1
let fls = of_int ~width:1 0
let ( !: ) e = Unop (Not, e)
let ( &: ) a b = Binop (And, a, b)
let ( |: ) a b = Binop (Or, a, b)
let ( ^: ) a b = Binop (Xor, a, b)
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( ==: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let mux s t e = Mux (s, t, e)
let concat hi lo = Binop (Concat, hi, lo)

let concat_list = function
  | [] -> invalid_arg "Expr.concat_list: empty"
  | e :: es -> List.fold_left concat e es

let slice e ~hi ~lo = Slice (e, hi, lo)
let bit e i = Slice (e, i, i)
let red_xor e = Unop (Red_xor, e)
let red_or e = Unop (Red_or, e)
let red_and e = Unop (Red_and, e)

let width ~env e =
  let rec go = function
    | Const b -> Bitvec.width b
    | Var x -> env x
    | Unop (Not, e) -> go e
    | Unop ((Red_and | Red_or | Red_xor), e) ->
      let _ = go e in
      1
    | Binop ((And | Or | Xor | Xnor | Add | Sub), a, b) ->
      let wa = go a and wb = go b in
      if wa <> wb then
        invalid_arg
          (Printf.sprintf "Expr.width: operand width mismatch (%d vs %d)" wa wb);
      wa
    | Binop ((Eq | Ne | Lt), a, b) ->
      let wa = go a and wb = go b in
      if wa <> wb then invalid_arg "Expr.width: comparison width mismatch";
      1
    | Binop (Concat, a, b) -> go a + go b
    | Mux (s, t, e) ->
      if go s <> 1 then invalid_arg "Expr.width: mux select must be 1 bit";
      let wt = go t and we = go e in
      if wt <> we then invalid_arg "Expr.width: mux arm width mismatch";
      wt
    | Slice (e, hi, lo) ->
      let w = go e in
      if lo < 0 || hi >= w || hi < lo then
        invalid_arg "Expr.width: slice out of range";
      hi - lo + 1
  in
  go e

let eval ~env e =
  let rec go = function
    | Const b -> b
    | Var x -> env x
    | Unop (Not, e) -> Bitvec.lognot (go e)
    | Unop (Red_and, e) -> Bitvec.of_bool (Bitvec.red_and (go e))
    | Unop (Red_or, e) -> Bitvec.of_bool (Bitvec.red_or (go e))
    | Unop (Red_xor, e) -> Bitvec.of_bool (Bitvec.red_xor (go e))
    | Binop (And, a, b) -> Bitvec.logand (go a) (go b)
    | Binop (Or, a, b) -> Bitvec.logor (go a) (go b)
    | Binop (Xor, a, b) -> Bitvec.logxor (go a) (go b)
    | Binop (Xnor, a, b) -> Bitvec.lognot (Bitvec.logxor (go a) (go b))
    | Binop (Add, a, b) -> Bitvec.add (go a) (go b)
    | Binop (Sub, a, b) -> Bitvec.sub (go a) (go b)
    | Binop (Eq, a, b) -> Bitvec.of_bool (Bitvec.equal (go a) (go b))
    | Binop (Ne, a, b) -> Bitvec.of_bool (not (Bitvec.equal (go a) (go b)))
    | Binop (Lt, a, b) -> Bitvec.of_bool (Bitvec.compare (go a) (go b) < 0)
    | Binop (Concat, a, b) -> Bitvec.concat (go a) (go b)
    | Mux (s, t, e) -> if Bitvec.get (go s) 0 then go t else go e
    | Slice (e, hi, lo) -> Bitvec.slice (go e) ~hi ~lo
  in
  go e

module String_set = Set.Make (String)

let support e =
  let rec go acc = function
    | Const _ -> acc
    | Var x -> String_set.add x acc
    | Unop (_, e) -> go acc e
    | Binop (_, a, b) -> go (go acc a) b
    | Mux (s, t, e) -> go (go (go acc s) t) e
    | Slice (e, _, _) -> go acc e
  in
  String_set.elements (go String_set.empty e)

let rec subst f = function
  | Const _ as e -> e
  | Var x as e -> ( match f x with Some e' -> e' | None -> e)
  | Unop (op, e) -> Unop (op, subst f e)
  | Binop (op, a, b) -> Binop (op, subst f a, subst f b)
  | Mux (s, t, e) -> Mux (subst f s, subst f t, subst f e)
  | Slice (e, hi, lo) -> Slice (subst f e, hi, lo)

let rename f e = subst (fun x -> Some (Var (f x))) e

let simplify ~env e =
  let width_of e = width ~env e in
  let rec go e =
    match e with
    | Const _ | Var _ -> e
    | Unop (op, a) -> Unop (op, go a)
    | Binop (op, a, b) -> Binop (op, go a, go b)
    | Mux (s, t, e') -> (
      match go s with
      | Const c -> if Bitvec.get c 0 then go t else go e'
      | s' -> Mux (s', go t, go e'))
    | Slice (a, hi, lo) -> slice_of (go a) hi lo
  and slice_of a hi lo =
    match a with
    | _ when lo = 0 && hi = width_of a - 1 -> a
    | Const c -> Const (Bitvec.slice c ~hi ~lo)
    | Slice (b, _, lo2) -> slice_of b (lo2 + hi) (lo2 + lo)
    | Binop (Concat, hi_part, lo_part) ->
      let wlo = width_of lo_part in
      if hi < wlo then slice_of lo_part hi lo
      else if lo >= wlo then slice_of hi_part (hi - wlo) (lo - wlo)
      else Slice (a, hi, lo)
    | Var _ | Unop _ | Binop _ | Mux _ -> Slice (a, hi, lo)
  in
  go e

let equal = ( = )
let compare = Stdlib.compare

let unop_symbol = function
  | Not -> "~"
  | Red_and -> "&"
  | Red_or -> "|"
  | Red_xor -> "^"

let binop_symbol = function
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Xnor -> "~^"
  | Add -> "+"
  | Sub -> "-"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Concat -> ","

let rec pp ppf = function
  | Const b -> Bitvec.pp ppf b
  | Var x -> Format.pp_print_string ppf x
  | Unop (op, e) -> Format.fprintf ppf "%s(%a)" (unop_symbol op) pp e
  | Binop (Concat, a, b) -> Format.fprintf ppf "{%a, %a}" pp a pp b
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (binop_symbol op) pp b
  | Mux (s, t, e) -> Format.fprintf ppf "(%a ? %a : %a)" pp s pp t pp e
  | Slice (e, hi, lo) ->
    if hi = lo then Format.fprintf ppf "%a[%d]" pp e lo
    else Format.fprintf ppf "%a[%d:%d]" pp e hi lo

(* [pp]'s text, written straight into a buffer: [pp] opens no box and has
   no break hint, so [Format] adds nothing to it *)
let bprint ?(name = Fun.id) b e =
  let chr = Buffer.add_char b and str = Buffer.add_string b in
  let rec digits n =
    if n >= 10 then digits (n / 10);
    chr (Char.unsafe_chr (48 + (n mod 10)))
  in
  let int n = if n >= 0 then digits n else str (string_of_int n) in
  let rec go = function
    | Const c ->
      let w = Bitvec.width c in
      int w;
      str "'b";
      for i = w - 1 downto 0 do
        chr (if Bitvec.get c i then '1' else '0')
      done
    | Var x -> str (name x)
    | Unop (op, e) ->
      str (unop_symbol op);
      chr '(';
      go e;
      chr ')'
    | Binop (Concat, x, y) ->
      chr '{';
      go x;
      str ", ";
      go y;
      chr '}'
    | Binop (op, x, y) ->
      chr '(';
      go x;
      chr ' ';
      str (binop_symbol op);
      chr ' ';
      go y;
      chr ')'
    | Mux (s, t, e) ->
      chr '(';
      go s;
      str " ? ";
      go t;
      str " : ";
      go e;
      chr ')'
    | Slice (e, hi, lo) ->
      go e;
      chr '[';
      if hi <> lo then begin
        int hi;
        chr ':'
      end;
      int lo;
      chr ']'
  in
  go e

let to_string e =
  let b = Buffer.create 64 in
  bprint b e;
  Buffer.contents b
