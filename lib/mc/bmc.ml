module B = Rtl.Bitblast
module X = Rtl.Bexpr

type stats = {
  depth : int;
  cnf_vars : int;
  cnf_clauses : int;
  sat : Solver.stats;
  reused : int;  (* solves answered by a warm (already-populated) solver *)
}

type result =
  | No_violation_upto of int * stats
  | Violation of Trace.t * stats
  | Inconclusive of stats

(* An unrolling context: a frame encoder streaming into one live CDCL
   solver, plus the symbolic state needed to extend the unrolling by one
   more frame. Frame [d]'s bad literal is asserted as an assumption (never
   a clause), so depth d+1 simply encodes one more frame and re-solves —
   everything the solver learnt at depth d is kept. The Tseitin gate
   encoding is biconditional, so assuming the frame-d bad literal is
   exactly "the property fails at frame d"; with frames < d already proven
   unreachable-bad, this query is equivalent to the monolithic "fails
   anywhere in 0..d" disjunction, and no activation clauses need retiring.

   The symbolic state of frame k is one leaf per state bit: reset constants
   at frame 0, and for k > 0 one fresh variable per state bit, tied to its
   transition function by biconditional clauses when frame k-1 is encoded.
   Carrying leaves (rather than the substituted transition trees) keeps
   each frame's encoding work proportional to the cone size — substituted
   trees grow with the depth and made unrolling to depth d cost O(d^2)
   overall, which is exactly the work a scratch re-encode does and so
   capped the incremental speedup near 1x. A state bit whose next state
   comes out a constant or an existing leaf carries that instead.

   Two encoders build the frames, and they build the same ones: the same
   variables numbered in the same order, the same clauses in the same
   order, so the solver searches alike behind either. The reference
   substitutes the frame's leaves into the Bexpr cone with
   [Bexpr.substitute_many] and Tseitin-encodes the result. The template
   flattens the cone into int arrays once per obligation and stamps every
   frame from them, building no Bexpr node, table or list. *)

(* ---- the reference encoder: substitution, then Tseitin ---- *)

type reference = {
  bad0 : X.t;
  constraint0 : X.t option;
  next_of : X.t array;  (* next-state function per state bit *)
  ctx : Tseitin.ctx;
  cnf_var_of : (int, int) Hashtbl.t;
  mutable frame_states : X.t array list;
      (* per-frame symbolic state, newest first; head = frame [next_depth] *)
}

(* ---- the template encoder ---- *)

type op = True | False | Var | Not | And | Or | Xor | Ite

(* A handle names what a cone node becomes in one frame: the identity of
   the Bexpr node that substituting the frame's leaves would build.
   [h_true] and [h_false] are the constants, a negative h is leaf -h-1 (a
   frame input or frame state variable) and h >= 2 is frame node h-2. Two
   handles are equal exactly when those Bexpr nodes' ids would be, which is
   what the smart constructors compare. *)
let h_true = 0
let h_false = 1

type template = {
  (* the one-step cone, flattened once, operands before their users: node
     i's operator and its operand nodes (a leaf's: its variable) *)
  op : op array;
  arg : int array;  (* 3 per node *)
  bad_root : int;
  constraint_root : int;  (* -1: no constraint *)
  next_root : int array;  (* per state bit *)
  (* per frame, reused by every frame: each cone node's handle, and the
     frame nodes built for them *)
  handle : int array;
  kind : op array;
  kid : int array;  (* 3 per frame node: its operands' handles *)
  lit : int array;  (* per frame node: its literal, 0 until encoded *)
  mutable nodes : int;
  (* across frames *)
  mutable leaf_var : int array;  (* CNF variable per leaf, 0 until made *)
  mutable state : int array;  (* frame k's state handles from k * nstate *)
  mutable true_var : int;  (* 0 until a constant is encoded *)
  mutable vars : int;
  mutable clauses : int;
  clause : int array;  (* the clause being emitted *)
  on_clause : (int list -> unit) option;
}

type encoder = Reference of reference | Template of template

type inc = {
  nstate : int;
  ninputs : int;
  input_vars : (string * int array) list;
  reg_vars : (string * int array) list;
  solver : Solver.t;
  encoder : encoder;
  mutable next_depth : int;   (* first frame not yet encoded *)
  mutable bad_lits : (int * int) list;  (* (frame, literal), newest first *)
}

let frame_input_var inc k j = inc.nstate + (k * inc.ninputs) + j

(* Bexpr variable standing for state bit [j] of frame [k] (k >= 1; frame 0
   is the reset constants). Negative ids, so they can never collide with
   the non-negative flat-netlist / frame-input ids. *)
let frame_state_var inc k j = -(1 + ((k - 1) * inc.nstate) + j)

(* The template's leaves of frame k: its inputs, then (k >= 1) its state
   variables. *)
let input_leaf inc k j = (k * (inc.ninputs + inc.nstate)) + j
let state_leaf inc k j = (k * (inc.ninputs + inc.nstate)) + inc.ninputs + j

(* Flatten the cone under the roots, each shared node once. *)
let template_of ~on_clause ~bad ~constraint_ ~next ~reset =
  let index = Hashtbl.create 997 in
  let order = ref [] in
  let rec visit (e : X.t) =
    if not (Hashtbl.mem index e.id) then begin
      (match e.node with
       | X.True | X.False | X.Var _ -> ()
       | X.Not a -> visit a
       | X.And (a, b) | X.Or (a, b) | X.Xor (a, b) ->
         visit a;
         visit b
       | X.Ite (c, t, f) ->
         visit c;
         visit t;
         visit f);
      Hashtbl.add index e.id (Hashtbl.length index);
      order := e :: !order
    end
  in
  visit bad;
  Option.iter visit constraint_;
  Array.iter visit next;
  let n = Hashtbl.length index in
  let op = Array.make n True and arg = Array.make (3 * n) 0 in
  let at (e : X.t) = Hashtbl.find index e.id in
  List.iter
    (fun (e : X.t) ->
      let i = at e in
      let set o a b c =
        op.(i) <- o;
        arg.(3 * i) <- a;
        arg.((3 * i) + 1) <- b;
        arg.((3 * i) + 2) <- c
      in
      match e.node with
      | X.True -> set True 0 0 0
      | X.False -> set False 0 0 0
      | X.Var v -> set Var v 0 0
      | X.Not a -> set Not (at a) 0 0
      | X.And (a, b) -> set And (at a) (at b) 0
      | X.Or (a, b) -> set Or (at a) (at b) 0
      | X.Xor (a, b) -> set Xor (at a) (at b) 0
      | X.Ite (c, t, f) -> set Ite (at c) (at t) (at f))
    !order;
  (* a cone node builds at most two frame nodes: ite's rewrites build a
     Not under an And or an Or *)
  { op; arg; bad_root = at bad;
    constraint_root = (match constraint_ with Some c -> at c | None -> -1);
    next_root = Array.map at next; handle = Array.make n h_false;
    kind = Array.make (2 * n) True; kid = Array.make (6 * n) 0;
    lit = Array.make (2 * n) 0; nodes = 0; leaf_var = Array.make 64 0;
    state = Array.map (fun b -> if b then h_true else h_false) reset;
    true_var = 0; vars = 0; clauses = 0; clause = Array.make 3 0; on_clause }

let create_inc ?(incremental = true) ?on_clause ?constraint_signal nl
    ~ok_signal =
  let flat = B.flatten nl in
  let nstate =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.reg_vars
  in
  let ninputs =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.input_vars
  in
  let ok_bits = flat.B.fn ok_signal in
  if Array.length ok_bits <> 1 then
    invalid_arg "Bmc.check: ok signal must be 1 bit";
  let bad0 = X.not_ ok_bits.(0) in
  let constraint0 =
    Option.map (fun c -> (flat.B.fn c).(0)) constraint_signal
  in
  (* next-state function per state bit, indexed by Bexpr variable id *)
  let next_of = Array.make (max nstate 1) X.fls in
  List.iter
    (fun (reg_name, (vars : int array)) ->
      let fns = List.assoc reg_name flat.B.next_fn in
      Array.iteri (fun i v -> next_of.(v) <- fns.(i)) vars)
    flat.B.reg_vars;
  (* frame 0 state = reset constants *)
  let reset =
    Array.init nstate (fun v ->
        let name, bit = flat.B.bit_of_var v in
        Bitvec.get (flat.B.reset_of name) bit)
  in
  let solver = Solver.create () in
  let encoder =
    if incremental then
      Template
        (template_of ~on_clause ~bad:bad0 ~constraint_:constraint0
           ~next:(Array.sub next_of 0 nstate) ~reset)
    else
      let sink lits =
        Option.iter (fun f -> f lits) on_clause;
        Solver.add_clause solver lits
      in
      Reference
        { bad0; constraint0; next_of; ctx = Tseitin.create ~on_clause:sink;
          cnf_var_of = Hashtbl.create 997;
          frame_states = [ Array.map X.of_bool reset ] }
  in
  { nstate; ninputs; input_vars = flat.B.input_vars;
    reg_vars = flat.B.reg_vars; solver; encoder; next_depth = 0;
    bad_lits = [] }

(* ---- reference frames ---- *)

let var_map r v =
  match Hashtbl.find_opt r.cnf_var_of v with
  | Some cv -> cv
  | None ->
    let cv = Tseitin.fresh_var r.ctx in
    Hashtbl.replace r.cnf_var_of v cv;
    cv

(* Encode frame k: the bad literal (kept aside for assumption solving), the
   constraint as a permanent unit, and the next frame's state variables
   tied to the substituted transition functions. The substitution memo is
   shared across all of the frame's roots (bad, constraint, every
   next-state function), so logic feeding several of them is rewritten —
   and then Tseitin-encoded — once. Frame state enters the substitution as
   single leaves, so every substituted tree is the size of the one-step
   cone regardless of depth. *)
let reference_frame inc r k =
  let state = List.hd r.frame_states in
  let leaf_of v =
    if v < inc.nstate then state.(v)
    else X.var (frame_input_var inc k (v - inc.nstate))
  in
  let roots =
    (r.bad0 :: (match r.constraint0 with Some c -> [ c ] | None -> []))
    @ Array.to_list r.next_of
  in
  let lit e = Tseitin.lit_of_bexpr r.ctx (var_map r) e in
  match X.substitute_many leaf_of roots with
  | [] -> assert false
  | bad :: rest ->
    let bad_lit = lit bad in
    inc.bad_lits <- (k, bad_lit) :: inc.bad_lits;
    let nexts =
      match (r.constraint0, rest) with
      | Some _, c :: nexts ->
        Tseitin.assert_lit r.ctx (lit c);
        nexts
      | Some _, [] -> assert false
      | None, nexts -> nexts
    in
    let next_state =
      List.mapi
        (fun j fe ->
          match (fe : X.t).node with
          (* already a leaf (constant, or an alias of an existing frame
             variable): carry it directly, no binding needed *)
          | X.True | X.False | X.Var _ -> fe
          | _ ->
            let sv = X.var (frame_state_var inc (k + 1) j) in
            let sl = lit sv and fl = lit fe in
            Tseitin.add_clause r.ctx [ -sl; fl ];
            Tseitin.add_clause r.ctx [ sl; -fl ];
            sv)
        nexts
    in
    r.frame_states <- Array.of_list next_state :: r.frame_states

(* ---- template frames ---- *)

(* Pass 1 builds frame nodes as Bexpr's smart constructors would: the same
   folding, the same identity tests, [not_ (Not e) = e], and ite's
   rewrites into and_/or_. *)
let node tp kind a b c =
  let n = tp.nodes in
  tp.nodes <- n + 1;
  tp.kind.(n) <- kind;
  tp.kid.(3 * n) <- a;
  tp.kid.((3 * n) + 1) <- b;
  tp.kid.((3 * n) + 2) <- c;
  tp.lit.(n) <- 0;
  n + 2

let not_h tp a =
  if a = h_true then h_false
  else if a = h_false then h_true
  else if a < 0 then node tp Not a 0 0
  else
    match tp.kind.(a - 2) with
    | Not -> tp.kid.(3 * (a - 2))
    | True | False | Var | And | Or | Xor | Ite -> node tp Not a 0 0

let and_h tp a b =
  if a = h_false || b = h_false then h_false
  else if a = h_true then b
  else if b = h_true then a
  else if a = b then a
  else node tp And a b 0

let or_h tp a b =
  if a = h_true || b = h_true then h_true
  else if a = h_false then b
  else if b = h_false then a
  else if a = b then a
  else node tp Or a b 0

let xor_h tp a b =
  if a = h_false then b
  else if b = h_false then a
  else if a = h_true then not_h tp b
  else if b = h_true then not_h tp a
  else if a = b then h_false
  else node tp Xor a b 0

let ite_h tp c t e =
  if c = h_true then t
  else if c = h_false then e
  else if t = h_true && e = h_false then c
  else if t = h_false && e = h_true then not_h tp c
  else if t = e then t
  else if t = h_true then or_h tp c e
  else if e = h_false then and_h tp c t
  else if t = h_false then and_h tp (not_h tp c) e
  else if e = h_true then or_h tp (not_h tp c) t
  else node tp Ite c t e

(* Pass 1: every cone node's handle in frame k, operands first. *)
let stamp inc tp k =
  let arg = tp.arg and h = tp.handle and base = k * inc.nstate in
  tp.nodes <- 0;
  for i = 0 to Array.length tp.op - 1 do
    let a = arg.(3 * i) in
    h.(i) <-
      (match tp.op.(i) with
       | True -> h_true
       | False -> h_false
       | Var ->
         if a < inc.nstate then tp.state.(base + a)
         else -input_leaf inc k (a - inc.nstate) - 1
       | Not -> not_h tp h.(a)
       | And -> and_h tp h.(a) h.(arg.((3 * i) + 1))
       | Or -> or_h tp h.(a) h.(arg.((3 * i) + 1))
       | Xor -> xor_h tp h.(a) h.(arg.((3 * i) + 1))
       | Ite -> ite_h tp h.(a) h.(arg.((3 * i) + 1)) h.(arg.((3 * i) + 2)))
  done

let fresh tp =
  tp.vars <- tp.vars + 1;
  tp.vars

let emit inc tp n =
  tp.clauses <- tp.clauses + 1;
  (match tp.on_clause with
   | None -> ()
   | Some f -> f (Array.to_list (Array.sub tp.clause 0 n)));
  Solver.add_clause_slice inc.solver tp.clause 0 n

let emit1 inc tp a =
  tp.clause.(0) <- a;
  emit inc tp 1

let emit2 inc tp a b =
  tp.clause.(0) <- a;
  tp.clause.(1) <- b;
  emit inc tp 2

let emit3 inc tp a b c =
  tp.clause.(0) <- a;
  tp.clause.(1) <- b;
  tp.clause.(2) <- c;
  emit inc tp 3

(* [a], or a copy at least twice as long padded with [fill], with room
   for [n] entries *)
let with_room a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let leaf_lit tp leaf =
  tp.leaf_var <- with_room tp.leaf_var (leaf + 1) 0;
  if tp.leaf_var.(leaf) = 0 then tp.leaf_var.(leaf) <- fresh tp;
  tp.leaf_var.(leaf)

(* Pass 2: the literal of handle h, numbering variables at first visit and
   emitting each gate's clauses as [Tseitin.lit_of_bexpr] does: operands
   left to right, then the gate's variable, then its clauses in order. *)
let rec lit inc tp h =
  if h = h_true || h = h_false then begin
    if tp.true_var = 0 then begin
      let v = fresh tp in
      emit1 inc tp v;
      tp.true_var <- v
    end;
    if h = h_true then tp.true_var else -tp.true_var
  end
  else if h < 0 then leaf_lit tp (-h - 1)
  else begin
    let n = h - 2 in
    if tp.lit.(n) = 0 then begin
      let kid = tp.kid in
      let a = kid.(3 * n) and b = kid.((3 * n) + 1) in
      tp.lit.(n) <-
        (match tp.kind.(n) with
         | Not -> -lit inc tp a
         | And ->
           let la = lit inc tp a in
           let lb = lit inc tp b in
           let o = fresh tp in
           emit2 inc tp (-o) la;
           emit2 inc tp (-o) lb;
           emit3 inc tp o (-la) (-lb);
           o
         | Or ->
           let la = lit inc tp a in
           let lb = lit inc tp b in
           let o = fresh tp in
           emit2 inc tp o (-la);
           emit2 inc tp o (-lb);
           emit3 inc tp (-o) la lb;
           o
         | Xor ->
           let la = lit inc tp a in
           let lb = lit inc tp b in
           let o = fresh tp in
           emit3 inc tp (-o) la lb;
           emit3 inc tp (-o) (-la) (-lb);
           emit3 inc tp o (-la) lb;
           emit3 inc tp o la (-lb);
           o
         | Ite ->
           let lc = lit inc tp a in
           let lt = lit inc tp b in
           let lf = lit inc tp kid.((3 * n) + 2) in
           let o = fresh tp in
           emit3 inc tp (-o) (-lc) lt;
           emit3 inc tp (-o) lc lf;
           emit3 inc tp o (-lc) (-lt);
           emit3 inc tp o lc (-lf);
           (* redundant but propagation-strengthening clauses *)
           emit3 inc tp (-o) lt lf;
           emit3 inc tp o (-lt) (-lf);
           o
         | True | False | Var -> assert false)
    end;
    tp.lit.(n)
  end

(* Frame k from the template, in the reference's order: the bad literal,
   the constraint unit, then per state bit whose next state is no leaf its
   frame-(k+1) variable, the function and the two binding clauses. *)
let template_frame inc tp k =
  stamp inc tp k;
  let h = tp.handle in
  inc.bad_lits <- (k, lit inc tp h.(tp.bad_root)) :: inc.bad_lits;
  if tp.constraint_root >= 0 then
    emit1 inc tp (lit inc tp h.(tp.constraint_root));
  let next = (k + 1) * inc.nstate in
  tp.state <- with_room tp.state (next + inc.nstate) h_false;
  for j = 0 to inc.nstate - 1 do
    let fe = h.(tp.next_root.(j)) in
    tp.state.(next + j) <-
      (* a constant or a leaf is carried, as in the reference *)
      (if fe < 2 then fe
       else begin
         let leaf = state_leaf inc (k + 1) j in
         let sl = leaf_lit tp leaf in
         let fl = lit inc tp fe in
         emit2 inc tp (-sl) fl;
         emit2 inc tp sl (-fl);
         -leaf - 1
       end)
  done

let encode_to inc depth =
  while inc.next_depth <= depth do
    let k = inc.next_depth in
    (match inc.encoder with
     | Reference r -> reference_frame inc r k
     | Template tp -> template_frame inc tp k);
    inc.next_depth <- k + 1
  done

let inc_cnf_vars inc =
  match inc.encoder with
  | Reference r -> Tseitin.num_vars r.ctx
  | Template tp -> tp.vars

let inc_cnf_clauses inc =
  match inc.encoder with
  | Reference r -> Tseitin.num_clauses r.ctx
  | Template tp -> tp.clauses

(* Rebuild the violating trace from a model: frame inputs are read off
   their CNF variables, and each frame's state leaves (a constant, a frame
   state variable, or an input alias) evaluate in O(1) under the model. A
   variable the encoding never made reads false. *)
let trace_of_model inc model ~fail_frame =
  let value cv = cv > 0 && cv <= Array.length model && model.(cv - 1) in
  let input, state =
    match inc.encoder with
    | Reference r ->
      let bexpr_var_value v =
        match Hashtbl.find_opt r.cnf_var_of v with
        | Some cv -> value cv
        | None -> false
      in
      let frames = Array.of_list (List.rev r.frame_states) in
      ( (fun k j -> bexpr_var_value (frame_input_var inc k j)),
        fun k v -> X.eval bexpr_var_value frames.(k).(v) )
    | Template tp ->
      let leaf_value leaf =
        leaf < Array.length tp.leaf_var && value tp.leaf_var.(leaf)
      in
      ( (fun k j -> leaf_value (input_leaf inc k j)),
        fun k v ->
          let h = tp.state.((k * inc.nstate) + v) in
          h = h_true || (h < 0 && leaf_value (-h - 1)) )
  in
  List.init (fail_frame + 1) (fun k ->
      let bits f (name, (vars : int array)) =
        (name, Bitvec.init (Array.length vars) (fun j -> f vars.(j)))
      in
      { Trace.step = k;
        inputs =
          List.map (bits (fun v -> input k (v - inc.nstate))) inc.input_vars;
        state = List.map (bits (state k)) inc.reg_vars })

(* one span each for encoding and search, so a profile splits the engine's
   time between them *)
let solve_depth ?(max_conflicts = max_int) ?(should_stop = fun () -> false)
    inc ~depth =
  Obs.Telemetry.span ~cat:"sat" "encode" (fun () -> encode_to inc depth);
  let bad = List.assoc depth inc.bad_lits in
  let result, st =
    Obs.Telemetry.span ~cat:"sat" "search" (fun () ->
        Solver.solve_assuming_stats ~max_conflicts ~should_stop inc.solver
          [ bad ])
  in
  match result with
  | Solver.Unsat -> (`No_violation, st)
  | Solver.Unknown -> (`Unknown, st)
  | Solver.Sat model ->
    (`Violation (trace_of_model inc model ~fail_frame:depth), st)

let check ?(incremental = true) ?(max_conflicts = max_int)
    ?(deadline = Deadline.none) ?constraint_signal nl ~ok_signal ~depth =
  let shared =
    if incremental then Some (create_inc ?constraint_signal nl ~ok_signal)
    else None
  in
  let sat = ref Solver.zero_stats in
  let reused = ref 0 in
  let mk_stats ~depth inc =
    { depth; cnf_vars = inc_cnf_vars inc; cnf_clauses = inc_cnf_clauses inc;
      sat = !sat; reused = !reused }
  in
  let rec go d =
    if d > depth then
      (* depth < 0: nothing checked at all *)
      match shared with
      | Some inc -> No_violation_upto (depth, mk_stats ~depth inc)
      | None ->
        No_violation_upto
          ( depth,
            { depth; cnf_vars = 0; cnf_clauses = 0; sat = Solver.zero_stats;
              reused = 0 } )
    else begin
      Deadline.check deadline;
      let inc =
        match shared with
        | Some inc ->
          if d > 0 then incr reused;
          inc
        | None -> create_inc ~incremental:false ?constraint_signal nl ~ok_signal
      in
      Obs.Telemetry.progress ~engine:"bmc" ~step:d ~work:(inc_cnf_vars inc);
      let outcome, st =
        solve_depth ~max_conflicts ~should_stop:(Deadline.checker deadline)
          inc ~depth:d
      in
      sat := Solver.add_stats !sat st;
      if shared = None then Solver.release inc.solver;
      match outcome with
      | `No_violation ->
        if d = depth then No_violation_upto (depth, mk_stats ~depth inc)
        else go (d + 1)
      | `Unknown -> Inconclusive (mk_stats ~depth:d inc)
      | `Violation trace -> Violation (trace, mk_stats ~depth:d inc)
    end
  in
  let result = go 0 in
  (* the trace and the stats are built: hand the solver's storage on *)
  Option.iter (fun inc -> Solver.release inc.solver) shared;
  result
