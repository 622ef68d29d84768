(* Arena-packed ROBDD.

   Memory layout
   -------------
   Every node lives in one growable int array slab, 3 ints per node:

     slab.(3*n)     variable level (terminals: max_int)
     slab.(3*n + 1) low child  (else branch, variable = 0)
     slab.(3*n + 2) high child (then branch, variable = 1)

   Nodes 0 and 1 are the terminals false/true; every other node n >= 2
   satisfies the ROBDD invariants: low <> high, child levels strictly
   greater than the node's, and the (var, low, high) triple unique. A BDD
   value is the int index of its root node, so handles are unboxed and
   equality is integer equality. The variable order is the index order.
   The slab lives in the OCaml heap, not in a Bigarray, so an outgrown or
   dead slab goes back at the next major collection instead of waiting for
   a finaliser; a campaign's peak memory depends on that.

   Hash consing runs through an open-addressed unique table: a power-of-two
   int array of node indices (0 marks an empty slot — the false terminal is
   never interned), linear probing, no deletions (the arena is monotone).
   At 3/4 load the table doubles and is rebuilt from the slab itself.

   Every recursive operation memoizes in one computed table (Brace, Rudell
   and Bryant, DAC 1990): four parallel int arrays holding a key triple
   and its result, direct-mapped by a hash of the triple; a colliding
   entry simply overwrites. [ite] keys its entries (f, g, h) with the node
   h >= 0. The other operations key theirs (a, b, tag), where the tag is
   negative and encodes the operation and a stamp that each call takes on
   entry: [ite] never reads such an entry, and no later call matches an
   earlier call's tag, so an entry dies with its call and nothing is
   cleared. The table doubles alongside the slab (dropping its entries,
   which is safe) up to a fixed ceiling; [clear_caches] invalidates it.
   The unique table is never cleared.

   Per-call sets are per-manager marks instead. [var_mark] holds, for each
   variable, the stamp of the last call that marked it: the quantified set
   of [exists], [forall] and [and_exists], the variables [support] met.
   [visit] holds one byte per node for the walks of [size] and [support],
   compared with a byte stamp and refilled when that stamp wraps. The
   recursive operations therefore allocate nothing.

   Because the arena is monotone and hash-consed, a memo miss recomputes
   nodes that already exist and a hit returns nodes allocated earlier: the
   sequence of fresh allocations does not depend on the computed table's
   size or on what it evicts. The slab doubles on demand and is never
   garbage-collected, so [node_count] is an exact, reproducible work
   measure and [Node_limit] (the paper's "time out") is precise. The
   interrupt callback is polled every [interrupt_period] fresh
   allocations — the same place the node limit is checked — so
   cancellation latency is bounded by allocation progress, not by the size
   of the operation in flight. *)

type man = {
  mutable slab : int array;
  mutable cap : int;  (* nodes the slab can hold *)
  mutable next_free : int;
  mutable tbl : int array;  (* open-addressed unique table; 0 = empty *)
  mutable tbl_mask : int;
  mutable ct_a : int array;  (* computed table keys; a = -1 = empty *)
  mutable ct_b : int array;
  mutable ct_c : int array;  (* ite: a node; other operations: a tag < 0 *)
  mutable ct_r : int array;
  mutable ct_mask : int;
  nvars : int;
  mutable stamp : int;  (* the last call stamp handed out *)
  var_mark : int array;  (* per variable: the stamp that last marked it *)
  compose_to : int array;  (* vector_compose's substitution; -1 = none *)
  mutable visit : Bytes.t;  (* per node: the walk stamp that last saw it *)
  mutable visit_stamp : int;
  mutable node_limit : int option;
  mutable interrupt : (unit -> bool) option;
  mutable interrupt_fuel : int;
  mutable interrupt_polls : int;
}

type t = int

exception Node_limit
exception Interrupted

(* how many node allocations between two polls of the interrupt callback:
   rare enough that the gettimeofday behind a deadline check is free, often
   enough that one runaway apply cannot overshoot a deadline by much *)
let interrupt_period = 8192
let terminal_level = max_int
let ct_max = 1 lsl 18

let[@inline] node_var m n = Array.unsafe_get m.slab (3 * n)
let[@inline] node_low m n = Array.unsafe_get m.slab ((3 * n) + 1)
let[@inline] node_high m n = Array.unsafe_get m.slab ((3 * n) + 2)

(* multiplicative triple mix; masked to a non-negative int *)
let[@inline] mix3 a b c =
  let x = (a * 0x9e3779b1) + b in
  let x = (x * 0x9e3779b1) + c in
  let x = x lxor (x lsr 16) in
  let x = x * 0x2545f491 in
  (x lxor (x lsr 24)) land max_int

let create ?node_limit ~nvars () =
  let cap = 1024 in
  let slab = Array.make (3 * cap) 0 in
  (* node 0 = false, 1 = true *)
  for n = 0 to 1 do
    slab.(3 * n) <- terminal_level;
    slab.((3 * n) + 1) <- -1;
    slab.((3 * n) + 2) <- -1
  done;
  let memo = cap in
  { slab;
    cap;
    next_free = 2;
    tbl = Array.make (2 * cap) 0;
    tbl_mask = (2 * cap) - 1;
    ct_a = Array.make memo (-1);
    ct_b = Array.make memo 0;
    ct_c = Array.make memo 0;
    ct_r = Array.make memo 0;
    ct_mask = memo - 1;
    nvars;
    stamp = 0;
    var_mark = Array.make nvars 0;
    compose_to = Array.make nvars (-1);
    visit = Bytes.empty;
    visit_stamp = 0;
    node_limit;
    interrupt = None;
    interrupt_fuel = interrupt_period;
    interrupt_polls = 0 }

let nvars m = m.nvars

let set_interrupt m f =
  m.interrupt <- f;
  m.interrupt_fuel <- interrupt_period

let node_count m = m.next_free
let interrupt_polls m = m.interrupt_polls
let clear_caches m = Array.fill m.ct_a 0 (Array.length m.ct_a) (-1)

let zero _ = 0
let one _ = 1
let is_zero b = b = 0
let is_one b = b = 1
let equal (a : t) b = a = b

let grow_slab m =
  let ncap = m.cap * 2 in
  let s = Array.make (3 * ncap) 0 in
  Array.blit m.slab 0 s 0 (3 * m.cap);
  m.slab <- s;
  m.cap <- ncap;
  (* the computed table tracks the arena size (dropping entries is safe
     for a cache) so small managers stay small and big runs keep hitting *)
  let msize = Array.length m.ct_a in
  if msize < ncap && msize < ct_max then begin
    let nsize = msize * 2 in
    m.ct_a <- Array.make nsize (-1);
    m.ct_b <- Array.make nsize 0;
    m.ct_c <- Array.make nsize 0;
    m.ct_r <- Array.make nsize 0;
    m.ct_mask <- nsize - 1
  end

let rehash m =
  let size = 2 * Array.length m.tbl in
  let mask = size - 1 in
  let tbl = Array.make size 0 in
  for n = 2 to m.next_free - 1 do
    let i = ref (mix3 (node_var m n) (node_low m n) (node_high m n) land mask) in
    while Array.unsafe_get tbl !i <> 0 do
      i := (!i + 1) land mask
    done;
    Array.unsafe_set tbl !i n
  done;
  m.tbl <- tbl;
  m.tbl_mask <- mask

(* find (v,l,h) in the unique table: the node index when interned, otherwise
   [-1 - slot] encoding the empty slot where it belongs *)
let rec probe m tbl mask v l h i =
  let n = Array.unsafe_get tbl i in
  if n = 0 then -1 - i
  else if node_var m n = v && node_low m n = l && node_high m n = h then n
  else probe m tbl mask v l h ((i + 1) land mask)

let mk m v l h =
  if l = h then l
  else
    let r = probe m m.tbl m.tbl_mask v l h (mix3 v l h land m.tbl_mask) in
    if r >= 0 then r
    else begin
      (match m.node_limit with
       | Some limit when m.next_free >= limit -> raise Node_limit
       | Some _ | None -> ());
      (match m.interrupt with
       | Some f ->
         m.interrupt_fuel <- m.interrupt_fuel - 1;
         if m.interrupt_fuel <= 0 then begin
           m.interrupt_fuel <- interrupt_period;
           m.interrupt_polls <- m.interrupt_polls + 1;
           if f () then raise Interrupted
         end
       | None -> ());
      if m.next_free >= m.cap then grow_slab m;
      let n = m.next_free in
      m.next_free <- n + 1;
      Array.unsafe_set m.slab (3 * n) v;
      Array.unsafe_set m.slab ((3 * n) + 1) l;
      Array.unsafe_set m.slab ((3 * n) + 2) h;
      (* nothing between the probe and here touches the table, so the
         encoded empty slot is still where this triple belongs *)
      m.tbl.(-1 - r) <- n;
      if 4 * (m.next_free - 2) > 3 * (m.tbl_mask + 1) then rehash m;
      n
    end

(* the computed table's entry for a key triple, or -1 *)
let[@inline] ct_find m a b c =
  let slot = mix3 a b c land m.ct_mask in
  if
    Array.unsafe_get m.ct_a slot = a
    && Array.unsafe_get m.ct_b slot = b
    && Array.unsafe_get m.ct_c slot = c
  then Array.unsafe_get m.ct_r slot
  else -1

(* hash the key again: a [mk] since the lookup may have doubled the table *)
let[@inline] ct_store m a b c r =
  let slot = mix3 a b c land m.ct_mask in
  Array.unsafe_set m.ct_a slot a;
  Array.unsafe_set m.ct_b slot b;
  Array.unsafe_set m.ct_c slot c;
  Array.unsafe_set m.ct_r slot r

(* the operations that key the computed table by a tag *)
let op_quantify = 0
let op_and_exists = 1
let op_compose = 2
let op_restrict = 3

let new_stamp m =
  m.stamp <- m.stamp + 1;
  m.stamp

(* the third key of operation [op]'s entries within the call [stamp] *)
let[@inline] tag stamp op = -1 - ((stamp lsl 2) lor op)

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var: out of range";
  mk m i 0 1

let nvar m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.nvar: out of range";
  mk m i 1 0

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else begin
    let r = ct_find m f g h in
    if r >= 0 then r
    else begin
      let vf = node_var m f and vg = node_var m g and vh = node_var m h in
      let v = if vf < vg then vf else vg in
      let v = if v < vh then v else vh in
      let f0 = if vf = v then node_low m f else f in
      let f1 = if vf = v then node_high m f else f in
      let g0 = if vg = v then node_low m g else g in
      let g1 = if vg = v then node_high m g else g in
      let h0 = if vh = v then node_low m h else h in
      let h1 = if vh = v then node_high m h else h in
      let r0 = ite m f0 g0 h0 in
      let r1 = ite m f1 g1 h1 in
      let r = mk m v r0 r1 in
      ct_store m f g h r;
      r
    end
  end

let not_ m f = ite m f 0 1
let and_ m f g = ite m f g 0
let or_ m f g = ite m f 1 g
let xor m f g = ite m f (not_ m g) g
let xnor m f g = ite m f g (not_ m g)
let imp m f g = ite m f g 1
let subset m a b = imp m a b = 1

let rec mark_list m ~what stamp = function
  | [] -> stamp
  | v :: rest ->
    if v < 0 || v >= m.nvars then invalid_arg (what ^ ": var out of range");
    Array.unsafe_set m.var_mark v stamp;
    mark_list m ~what stamp rest

(* take a call stamp and mark [vars] with it *)
let mark_vars m ~what vars = mark_list m ~what (new_stamp m) vars

let[@inline] marked m stamp v = Array.unsafe_get m.var_mark v = stamp

(* quantify the variables marked by [stamp] out of [f]: their cofactors
   are conjoined ([conj]) or disjoined *)
let rec quant m ~conj stamp f =
  if f <= 1 then f
  else
    let t = tag stamp op_quantify in
    let r = ct_find m f 0 t in
    if r >= 0 then r
    else begin
      let v = node_var m f in
      let r0 = quant m ~conj stamp (node_low m f)
      and r1 = quant m ~conj stamp (node_high m f) in
      let r =
        if marked m stamp v then if conj then and_ m r0 r1 else or_ m r0 r1
        else mk m v r0 r1
      in
      ct_store m f 0 t r;
      r
    end

let exists m vars f =
  quant m ~conj:false (mark_vars m ~what:"Bdd.quantify" vars) f

let forall m vars f =
  quant m ~conj:true (mark_vars m ~what:"Bdd.quantify" vars) f

(* [exists] of the marked variables over [f ∧ g]; a terminal operand goes
   to the same call's [quant] *)
let rec and_ex m stamp f g =
  if f = 0 || g = 0 then 0
  else if f = 1 && g = 1 then 1
  else if f = 1 then quant m ~conj:false stamp g
  else if g = 1 then quant m ~conj:false stamp f
  else
    let a = if f <= g then f else g and b = if f <= g then g else f in
    let t = tag stamp op_and_exists in
    let r = ct_find m a b t in
    if r >= 0 then r
    else begin
      let vf = node_var m f and vg = node_var m g in
      let v = if vf < vg then vf else vg in
      let f0 = if vf = v then node_low m f else f in
      let f1 = if vf = v then node_high m f else f in
      let g0 = if vg = v then node_low m g else g in
      let g1 = if vg = v then node_high m g else g in
      let r =
        if marked m stamp v then begin
          let r0 = and_ex m stamp f0 g0 in
          if r0 = 1 then 1 else or_ m r0 (and_ex m stamp f1 g1)
        end
        else mk m v (and_ex m stamp f0 g0) (and_ex m stamp f1 g1)
      in
      ct_store m a b t r;
      r
    end

let and_exists m vars f g =
  and_ex m (mark_vars m ~what:"Bdd.and_exists" vars) f g

let rec compose m t f =
  if f <= 1 then f
  else
    let r = ct_find m f 0 t in
    if r >= 0 then r
    else begin
      let v = node_var m f in
      let r0 = compose m t (node_low m f)
      and r1 = compose m t (node_high m f) in
      let s = Array.unsafe_get m.compose_to v in
      let sel = if s >= 0 then s else var m v in
      let r = ite m sel r1 r0 in
      ct_store m f 0 t r;
      r
    end

let vector_compose m subst f =
  let t = tag (new_stamp m) op_compose in
  for i = 0 to m.nvars - 1 do
    m.compose_to.(i) <- (match subst i with Some b -> b | None -> -1)
  done;
  compose m t f

let rec restrict_rec m v value t f =
  if f <= 1 then f
  else
    let fv = node_var m f in
    if fv > v then f
    else if fv = v then if value then node_high m f else node_low m f
    else
      let r = ct_find m f 0 t in
      if r >= 0 then r
      else begin
        let r =
          mk m fv
            (restrict_rec m v value t (node_low m f))
            (restrict_rec m v value t (node_high m f))
        in
        ct_store m f 0 t r;
        r
      end

let restrict m v value f =
  restrict_rec m v value (tag (new_stamp m) op_restrict) f

(* a fresh byte stamp for one walk over [visit] *)
let new_visit m =
  if Bytes.length m.visit < m.cap then begin
    m.visit <- Bytes.make m.cap '\000';
    m.visit_stamp <- 0
  end
  else if m.visit_stamp = 255 then begin
    Bytes.fill m.visit 0 (Bytes.length m.visit) '\000';
    m.visit_stamp <- 0
  end;
  m.visit_stamp <- m.visit_stamp + 1;
  Char.unsafe_chr m.visit_stamp

let rec count_nodes m s f =
  if Bytes.unsafe_get m.visit f = s then 0
  else begin
    Bytes.unsafe_set m.visit f s;
    if f <= 1 then 1
    else 1 + count_nodes m s (node_low m f) + count_nodes m s (node_high m f)
  end

let size m f = count_nodes m (new_visit m) f

let rec mark_support m stamp s f =
  if f > 1 && Bytes.unsafe_get m.visit f <> s then begin
    Bytes.unsafe_set m.visit f s;
    Array.unsafe_set m.var_mark (node_var m f) stamp;
    mark_support m stamp s (node_low m f);
    mark_support m stamp s (node_high m f)
  end

let support m f =
  let stamp = new_stamp m in
  mark_support m stamp (new_visit m) f;
  let acc = ref [] in
  for v = m.nvars - 1 downto 0 do
    if marked m stamp v then acc := v :: !acc
  done;
  !acc

let sat_count m f =
  let cache = Hashtbl.create 97 in
  (* count over variables strictly below a given level *)
  let rec go f =
    if f = 0 then 0.0
    else if f = 1 then 1.0
    else
      match Hashtbl.find_opt cache f with
      | Some c -> c
      | None ->
        let v = node_var m f in
        let weight child =
          let child_level = if child <= 1 then m.nvars else node_var m child in
          go child *. (2.0 ** float_of_int (child_level - v - 1))
        in
        let c = weight (node_low m f) +. weight (node_high m f) in
        Hashtbl.replace cache f c;
        c
  in
  let top = if f <= 1 then m.nvars else node_var m f in
  go f *. (2.0 ** float_of_int top)

let any_sat m f =
  if f = 0 then raise Not_found;
  let rec go f acc =
    if f = 1 then List.rev acc
    else
      let v = node_var m f in
      if node_low m f <> 0 then go (node_low m f) ((v, false) :: acc)
      else go (node_high m f) ((v, true) :: acc)
  in
  go f []

let eval m assign f =
  let rec go f =
    if f = 0 then false
    else if f = 1 then true
    else if assign (node_var m f) then go (node_high m f)
    else go (node_low m f)
  in
  go f

let cube m lits =
  List.fold_left
    (fun acc (v, b) -> and_ m acc (if b then var m v else nvar m v))
    1 lits

let fold_paths m f ~init ~f:fn =
  let rec go node path acc =
    if node = 0 then acc
    else if node = 1 then fn acc (List.rev path)
    else
      let v = node_var m node in
      let acc = go (node_low m node) ((v, false) :: path) acc in
      go (node_high m node) ((v, true) :: path) acc
  in
  go f [] init
