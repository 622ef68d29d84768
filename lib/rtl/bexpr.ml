type t = { id : int; node : node }

and node =
  | True
  | False
  | Var of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Ite of t * t * t

(* Node ids: [tru] is 0, [fls] is 1, and every other node but a variable
   takes the next value of an atomic counter, from 2 up, so domains building
   expressions at the same time never hand out one id twice. A variable's
   id is derived from its index instead, so [var i] has the same id in
   every domain without a shared table: the index is zigzag-encoded
   (0, -1, 1, -2, ... become 0, 1, 2, 3, ...) and complemented into the
   negative ids -1, -2, -3, ... that the counter never reaches. *)
let counter = Atomic.make 2

let mk node = { id = Atomic.fetch_and_add counter 1; node }

let tru = { id = 0; node = True }
let fls = { id = 1; node = False }
let of_bool b = if b then tru else fls

let var i =
  { id = lnot ((i lsl 1) lxor (i asr (Sys.int_size - 1))); node = Var i }

let is_const e =
  match e.node with True -> Some true | False -> Some false | _ -> None

let not_ e =
  match e.node with
  | True -> fls
  | False -> tru
  | Not e' -> e'
  | Var _ | And _ | Or _ | Xor _ | Ite _ -> mk (Not e)

let and_ a b =
  match (a.node, b.node) with
  | False, _ | _, False -> fls
  | True, _ -> b
  | _, True -> a
  | _ -> if a.id = b.id then a else mk (And (a, b))

let or_ a b =
  match (a.node, b.node) with
  | True, _ | _, True -> tru
  | False, _ -> b
  | _, False -> a
  | _ -> if a.id = b.id then a else mk (Or (a, b))

let xor a b =
  match (a.node, b.node) with
  | False, _ -> b
  | _, False -> a
  | True, _ -> not_ b
  | _, True -> not_ a
  | _ -> if a.id = b.id then fls else mk (Xor (a, b))

let xnor a b = not_ (xor a b)

let ite c t e =
  match (c.node, t.node, e.node) with
  | True, _, _ -> t
  | False, _, _ -> e
  | _, True, False -> c
  | _, False, True -> not_ c
  | _ ->
    if t.id = e.id then t
    else if t.id = tru.id then or_ c e
    else if e.id = fls.id then and_ c t
    else if t.id = fls.id then and_ (not_ c) e
    else if e.id = tru.id then or_ (not_ c) t
    else mk (Ite (c, t, e))

let and_list = List.fold_left and_ tru
let or_list = List.fold_left or_ fls
let xor_list = List.fold_left xor fls

let id e = e.id

let eval f e =
  let cache = Hashtbl.create 97 in
  let rec go e =
    match Hashtbl.find_opt cache e.id with
    | Some v -> v
    | None ->
      let v =
        match e.node with
        | True -> true
        | False -> false
        | Var i -> f i
        | Not a -> not (go a)
        | And (a, b) -> go a && go b
        | Or (a, b) -> go a || go b
        | Xor (a, b) -> go a <> go b
        | Ite (c, t, e') -> if go c then go t else go e'
      in
      Hashtbl.replace cache e.id v;
      v
  in
  go e

let substitute_cached cache f root =
  let rec go e =
    match Hashtbl.find_opt cache e.id with
    | Some v -> v
    | None ->
      let v =
        match e.node with
        | True -> tru
        | False -> fls
        | Var i -> f i
        | Not a -> not_ (go a)
        | And (a, b) -> and_ (go a) (go b)
        | Or (a, b) -> or_ (go a) (go b)
        | Xor (a, b) -> xor (go a) (go b)
        | Ite (c, t, e') -> ite (go c) (go t) (go e')
      in
      Hashtbl.replace cache e.id v;
      v
  in
  go root

let substitute f root = substitute_cached (Hashtbl.create 997) f root

let substitute_many f roots =
  let cache = Hashtbl.create 997 in
  List.map (substitute_cached cache f) roots

module Int_set = Set.Make (Int)

let support_set e =
  let seen = Hashtbl.create 97 in
  let acc = ref Int_set.empty in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.replace seen e.id ();
      match e.node with
      | True | False -> ()
      | Var i -> acc := Int_set.add i !acc
      | Not a -> go a
      | And (a, b) | Or (a, b) | Xor (a, b) ->
        go a;
        go b
      | Ite (c, t, e') ->
        go c;
        go t;
        go e'
    end
  in
  go e;
  !acc

let support e = Int_set.elements (support_set e)

let count_nodes seen e =
  let n = ref 0 in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.replace seen e.id ();
      match e.node with
      | True | False | Var _ -> ()
      | Not a ->
        incr n;
        go a
      | And (a, b) | Or (a, b) | Xor (a, b) ->
        incr n;
        go a;
        go b
      | Ite (c, t, e') ->
        incr n;
        go c;
        go t;
        go e'
    end
  in
  go e;
  !n

let size e = count_nodes (Hashtbl.create 97) e

let size_many es =
  let seen = Hashtbl.create 97 in
  List.fold_left (fun acc e -> acc + count_nodes seen e) 0 es

let rec pp ppf e =
  match e.node with
  | True -> Format.pp_print_string ppf "1"
  | False -> Format.pp_print_string ppf "0"
  | Var i -> Format.fprintf ppf "v%d" i
  | Not a -> Format.fprintf ppf "!%a" pp a
  | And (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
  | Xor (a, b) -> Format.fprintf ppf "(%a ^ %a)" pp a pp b
  | Ite (c, t, e') -> Format.fprintf ppf "(%a ? %a : %a)" pp c pp t pp e'
