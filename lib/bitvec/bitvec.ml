(* Bit vectors stored as little-endian limbs of [limb_bits] bits each; the
   top limb keeps only [width mod limb_bits] significant bits and is always
   masked so that structural equality works. *)

let limb_bits = 62
let limb_mask = (1 lsl limb_bits) - 1

type t = { width : int; limbs : int array }

let nlimbs width = (width + limb_bits - 1) / limb_bits

let top_mask width =
  let r = width mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

let normalize v =
  let n = Array.length v.limbs in
  if n > 0 then v.limbs.(n - 1) <- v.limbs.(n - 1) land top_mask v.width;
  v

let check_width w = if w <= 0 then invalid_arg "Bitvec: width must be positive"

let zero w =
  check_width w;
  { width = w; limbs = Array.make (nlimbs w) 0 }

let ones w =
  check_width w;
  normalize { width = w; limbs = Array.make (nlimbs w) limb_mask }

let of_int ~width n =
  check_width width;
  if n < 0 then invalid_arg "Bitvec.of_int: negative";
  let v = zero width in
  v.limbs.(0) <- n land limb_mask;
  if nlimbs width > 1 then v.limbs.(1) <- n lsr limb_bits;
  normalize v

let of_bool b = of_int ~width:1 (if b then 1 else 0)

let width v = v.width

let get v i =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.get: index out of range";
  v.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set v i b =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.set: index out of range";
  let limbs = Array.copy v.limbs in
  let j = i / limb_bits and k = i mod limb_bits in
  if b then limbs.(j) <- limbs.(j) lor (1 lsl k)
  else limbs.(j) <- limbs.(j) land lnot (1 lsl k);
  { v with limbs }

let init w f =
  check_width w;
  let v = zero w in
  for i = 0 to w - 1 do
    if f i then
      v.limbs.(i / limb_bits) <-
        v.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
  done;
  v

let random st w = init w (fun _ -> Random.State.bool st)

let of_string s =
  let bits =
    String.fold_left (fun acc c ->
        match c with
        | '0' -> false :: acc
        | '1' -> true :: acc
        | '_' -> acc
        | _ -> invalid_arg "Bitvec.of_string: expected binary digits")
      [] s
  in
  match bits with
  | [] -> invalid_arg "Bitvec.of_string: empty"
  | _ ->
    let arr = Array.of_list bits in
    init (Array.length arr) (fun i -> arr.(i))

let to_int v =
  let max_limbs_for_int = 1 in
  Array.iteri (fun i l ->
      if i > max_limbs_for_int && l <> 0 then
        invalid_arg "Bitvec.to_int: does not fit")
    v.limbs;
  if Array.length v.limbs > 1 && v.limbs.(1) lsr (62 - limb_bits + 1) <> 0
  then invalid_arg "Bitvec.to_int: does not fit";
  if Array.length v.limbs > 1 then v.limbs.(0) lor (v.limbs.(1) lsl limb_bits)
  else v.limbs.(0)

let to_string v =
  String.init v.width (fun i -> if get v (v.width - 1 - i) then '1' else '0')

let pp ppf v = Format.fprintf ppf "%d'b%s" v.width (to_string v)

(* the full record pattern: a field added to [t] fails to compile here *)
let add_to_buffer b { width; limbs } =
  Buffer.add_string b (string_of_int width);
  Buffer.add_char b ' ';
  Array.iter
    (fun l ->
      Buffer.add_string b (string_of_int l);
      Buffer.add_char b ' ')
    limbs

let is_zero v = Array.for_all (fun l -> l = 0) v.limbs

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare a b =
  if a.width <> b.width then invalid_arg "Bitvec.compare: width mismatch";
  let rec go i =
    if i < 0 then 0
    else
      let c = Stdlib.compare a.limbs.(i) b.limbs.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let hash v = Hashtbl.hash (v.width, v.limbs)

let map2 f a b =
  if a.width <> b.width then invalid_arg "Bitvec: width mismatch";
  normalize { width = a.width; limbs = Array.map2 f a.limbs b.limbs }

let lognot v =
  normalize { v with limbs = Array.map (fun l -> lnot l land limb_mask) v.limbs }

let logand = map2 ( land )
let logor = map2 ( lor )
let logxor = map2 ( lxor )

let red_or v = not (is_zero v)
let red_and v = equal v (ones v.width)

let popcount v =
  let count_limb l =
    let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + (l land 1)) in
    go l 0
  in
  Array.fold_left (fun acc l -> acc + count_limb l) 0 v.limbs

let red_xor v = popcount v land 1 = 1

let add a b =
  if a.width <> b.width then invalid_arg "Bitvec.add: width mismatch";
  let limbs = Array.make (Array.length a.limbs) 0 in
  let carry = ref 0 in
  for i = 0 to Array.length limbs - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize { width = a.width; limbs }

let neg v = add (lognot v) (of_int ~width:v.width 1)
let sub a b = add a (neg b)
let succ v = add v (of_int ~width:v.width 1)

let concat hi lo =
  init (hi.width + lo.width) (fun i ->
      if i < lo.width then get lo i else get hi (i - lo.width))

let slice v ~hi ~lo =
  if lo < 0 || hi >= v.width || hi < lo then
    invalid_arg "Bitvec.slice: bad range";
  init (hi - lo + 1) (fun i -> get v (lo + i))

let shift_left v n =
  if n < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  init v.width (fun i -> i >= n && get v (i - n))

let shift_right v n =
  if n < 0 then invalid_arg "Bitvec.shift_right: negative shift";
  init v.width (fun i -> i + n < v.width && get v (i + n))

let has_odd_parity v = red_xor v

let append_odd_parity v =
  let parity_bit = not (red_xor v) in
  concat (of_bool parity_bit) v

let corrupt_bit v i = set v i (not (get v i))
