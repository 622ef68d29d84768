type stats = { iterations : int; bdd_nodes : int; peak_set_size : int }

type result = Proved of stats | Failed of Trace.t * stats

(* ---- transition relation, partitioned per state bit ---- *)

let make_parts sym =
  let man = Sym.man sym in
  let n = Sym.num_state_bits sym in
  Array.init n (fun i ->
      let t_i = Bdd.xnor man (Bdd.var man (Sym.nxt_var sym i)) (Sym.next_fn sym i) in
      (t_i, Bdd.support man t_i))

let image_with_parts ?constrain sym parts s =
  Obs.Telemetry.span ~cat:"bdd" "image" @@ fun () ->
  let s =
    match constrain with
    | Some c -> Bdd.and_ (Sym.man sym) s c
    | None -> s
  in
  let man = Sym.man sym in
  let nvars = Bdd.nvars man in
  let quantifiable = Array.make nvars false in
  List.iter (fun v -> quantifiable.(v) <- true) (Sym.cur_vars sym);
  List.iter (fun v -> quantifiable.(v) <- true) (Sym.inp_vars sym);
  let last_use = Array.make nvars (-1) in
  Array.iteri
    (fun i (_, support) ->
      List.iter (fun v -> if quantifiable.(v) then last_use.(v) <- i) support)
    parts;
  (* variables only in S can be quantified immediately *)
  let upfront =
    List.filter (fun v -> quantifiable.(v) && last_use.(v) < 0)
      (Bdd.support man s)
  in
  let acc = ref (Bdd.exists man upfront s) in
  Array.iteri
    (fun i (t_i, support) ->
      let q =
        List.filter (fun v -> quantifiable.(v) && last_use.(v) = i) support
      in
      acc := Bdd.and_exists man q !acc t_i)
    parts;
  Sym.nxt_to_cur sym !acc

let image ?constrain sym s = image_with_parts ?constrain sym (make_parts sym) s

let pre_image ?constrain sym b =
  Obs.Telemetry.span ~cat:"bdd" "image" @@ fun () ->
  let man = Sym.man sym in
  let b' = Sym.subst_next sym b in
  let b' =
    match constrain with Some c -> Bdd.and_ man b' c | None -> b'
  in
  Bdd.exists man (Sym.inp_vars sym) b'

let bad_states ?constrain sym ~ok =
  let man = Sym.man sym in
  let nok = Bdd.not_ man ok in
  let nok =
    match constrain with Some c -> Bdd.and_ man nok c | None -> nok
  in
  Bdd.exists man (Sym.inp_vars sym) nok

(* ---- assignment plumbing for counterexample extraction ---- *)

let lookup assignment v =
  match List.assoc_opt v assignment with Some b -> b | None -> false

(* total current-state bit values from a partial BDD assignment *)
let state_bits_of sym assignment =
  Array.init (Sym.num_state_bits sym) (fun i ->
      lookup assignment (Sym.cur_var sym i))

let input_assignment_of sym assignment =
  List.map (fun v -> (v, lookup assignment v)) (Sym.inp_vars sym)

let cube_of_state sym bits =
  let man = Sym.man sym in
  Bdd.cube man
    (List.init (Array.length bits) (fun i -> (Sym.cur_var sym i, bits.(i))))

let assignment_of_state sym bits =
  List.init (Array.length bits) (fun i -> (Sym.cur_var sym i, bits.(i)))

let eval_under sym state_bits input_assignment b =
  let man = Sym.man sym in
  Bdd.eval man
    (fun v ->
      match Sym.classify_var sym v with
      | `Cur i -> state_bits.(i)
      | `Nxt _ | `Inp _ -> lookup input_assignment v)
    b

let next_state sym state_bits input_assignment =
  Array.init (Sym.num_state_bits sym) (fun i ->
      eval_under sym state_bits input_assignment (Sym.next_fn sym i))

let cycle_of sym ~step state_bits input_assignment =
  { Trace.step;
    inputs = Sym.input_values_of_assignment sym input_assignment;
    state = Sym.state_values_of_assignment sym (assignment_of_state sym state_bits) }

(* inputs that make ok fail in this very state *)
let failing_inputs ?constrain sym ~ok state_bits =
  let man = Sym.man sym in
  let here = Bdd.and_ man (cube_of_state sym state_bits) (Bdd.not_ man ok) in
  let here =
    match constrain with Some c -> Bdd.and_ man here c | None -> here
  in
  input_assignment_of sym (Bdd.any_sat man here)

(* ---- forward traversal ---- *)

let fixpoint loop = Obs.Telemetry.span ~cat:"bdd" "fixpoint" loop

(* forward rings: rings.(j) = states first reached at step j (cur vars) *)
let forward_rings_to_violation ?constrain ?(deadline = Deadline.none) sym ~bad =
  let man = Sym.man sym in
  let parts = make_parts sym in
  let rec go rings reached frontier iter peak =
    Deadline.check deadline;
    Obs.Telemetry.progress ~engine:"bdd-forward" ~step:iter
      ~work:(Bdd.node_count man);
    let peak = max peak (Bdd.size man reached) in
    if not (Bdd.is_zero (Bdd.and_ man frontier bad)) then
      `Violation (List.rev (frontier :: rings), iter, peak)
    else
      let img = image_with_parts ?constrain sym parts frontier in
      let fresh = Bdd.and_ man img (Bdd.not_ man reached) in
      if Bdd.is_zero fresh then `Proved (iter, peak)
      else
        go (frontier :: rings) (Bdd.or_ man reached fresh) fresh (iter + 1) peak
  in
  fixpoint (fun () -> go [] (Sym.init sym) (Sym.init sym) 0 0)

(* walk back from a state in the last ring to the initial state *)
let backtrack_forward ?constrain sym rings final_bits =
  let man = Sym.man sym in
  let rings = Array.of_list rings in
  let k = Array.length rings - 1 in
  (* result: states.(j), and inputs.(j) driving state j to state j+1 *)
  let states = Array.make (k + 1) final_bits in
  let inputs = Array.make (max k 1) [] in
  let rec back j target_bits =
    if j >= 0 then begin
      (* find s in ring j and input x with next(s, x) = target *)
      let target_eq =
        let acc = ref (Bdd.one man) in
        Array.iteri
          (fun i b ->
            let f = Sym.next_fn sym i in
            let lit = if b then f else Bdd.not_ man f in
            acc := Bdd.and_ man !acc lit)
          target_bits;
        !acc
      in
      let cand = Bdd.and_ man rings.(j) target_eq in
      let cand =
        match constrain with Some c -> Bdd.and_ man cand c | None -> cand
      in
      let assignment = Bdd.any_sat man cand in
      let s = state_bits_of sym assignment in
      let x = input_assignment_of sym assignment in
      states.(j) <- s;
      inputs.(j) <- x;
      back (j - 1) s
    end
  in
  back (k - 1) final_bits;
  (states, inputs, k)

let trace_from_rings ?constrain sym ~ok rings =
  let man = Sym.man sym in
  let bad = bad_states ?constrain sym ~ok in
  let last_ring = List.nth rings (List.length rings - 1) in
  let final_assignment = Bdd.any_sat man (Bdd.and_ man last_ring bad) in
  let final_bits = state_bits_of sym final_assignment in
  let states, inputs, k = backtrack_forward ?constrain sym rings final_bits in
  let cycles =
    List.init (k + 1) (fun j ->
        let x =
          if j < k then inputs.(j)
          else failing_inputs ?constrain sym ~ok final_bits
        in
        cycle_of sym ~step:j states.(j) x)
  in
  cycles

let check_forward ?constrain ?deadline sym ~ok =
  let man = Sym.man sym in
  let bad = bad_states ?constrain sym ~ok in
  match forward_rings_to_violation ?constrain ?deadline sym ~bad with
  | `Proved (iterations, peak) ->
    Proved { iterations; bdd_nodes = Bdd.node_count man; peak_set_size = peak }
  | `Violation (rings, iterations, peak) ->
    let trace = trace_from_rings ?constrain sym ~ok rings in
    Failed
      (trace,
       { iterations; bdd_nodes = Bdd.node_count man; peak_set_size = peak })

let reachable ?constrain sym =
  let man = Sym.man sym in
  let parts = make_parts sym in
  let rec go reached frontier =
    let img = image_with_parts ?constrain sym parts frontier in
    let fresh = Bdd.and_ man img (Bdd.not_ man reached) in
    if Bdd.is_zero fresh then reached
    else go (Bdd.or_ man reached fresh) fresh
  in
  fixpoint (fun () -> go (Sym.init sym) (Sym.init sym))

(* ---- backward traversal ---- *)

(* backward rings: brings.(t) = states whose minimum distance to bad is t *)
let backward_rings ?constrain ?(deadline = Deadline.none) sym ~bad ~stop_when =
  let man = Sym.man sym in
  let rec go rings covered frontier iter peak =
    Deadline.check deadline;
    Obs.Telemetry.progress ~engine:"bdd-backward" ~step:iter
      ~work:(Bdd.node_count man);
    let peak = max peak (Bdd.size man covered) in
    match stop_when frontier covered with
    | Some v -> `Hit (List.rev (frontier :: rings), v, iter, peak)
    | None ->
      let pre = pre_image ?constrain sym frontier in
      let fresh = Bdd.and_ man pre (Bdd.not_ man covered) in
      if Bdd.is_zero fresh then `Fixpoint (iter, peak)
      else go (frontier :: rings) (Bdd.or_ man covered fresh) fresh (iter + 1) peak
  in
  fixpoint (fun () -> go [] bad bad 0 0)

(* forward replay from a state known to be t steps from bad *)
let forward_walk_to_bad ?constrain sym ~ok rings_array start_bits
    start_ring_index ~first_step =
  let man = Sym.man sym in
  let cycles = ref [] in
  let rec walk bits t step =
    if t = 0 then
      cycles :=
        cycle_of sym ~step bits (failing_inputs ?constrain sym ~ok bits)
        :: !cycles
    else begin
      (* choose input x such that next(bits, x) lands in ring t-1 *)
      let target = rings_array.(t - 1) in
      let target_pre = Sym.subst_next sym target in
      let cand = Bdd.and_ man (cube_of_state sym bits) target_pre in
      let cand =
        match constrain with Some c -> Bdd.and_ man cand c | None -> cand
      in
      let assignment = Bdd.any_sat man cand in
      let x = input_assignment_of sym assignment in
      cycles := cycle_of sym ~step bits x :: !cycles;
      walk (next_state sym bits x) (t - 1) (step + 1)
    end
  in
  walk start_bits start_ring_index first_step;
  List.rev !cycles

let check_backward ?constrain ?deadline sym ~ok =
  let man = Sym.man sym in
  let bad = bad_states ?constrain sym ~ok in
  let init = Sym.init sym in
  let stop_when frontier _covered =
    let hit = Bdd.and_ man frontier init in
    if Bdd.is_zero hit then None else Some hit
  in
  match backward_rings ?constrain ?deadline sym ~bad ~stop_when with
  | `Fixpoint (iterations, peak) ->
    Proved { iterations; bdd_nodes = Bdd.node_count man; peak_set_size = peak }
  | `Hit (rings, hit, iterations, peak) ->
    let rings_array = Array.of_list rings in
    let t = Array.length rings_array - 1 in
    let start_bits = state_bits_of sym (Bdd.any_sat man hit) in
    let trace =
      forward_walk_to_bad ?constrain sym ~ok rings_array start_bits t
        ~first_step:0
    in
    Failed
      (trace,
       { iterations; bdd_nodes = Bdd.node_count man; peak_set_size = peak })

(* ---- combined forward/backward traversal ---- *)

let check_combined ?constrain ?(deadline = Deadline.none) sym ~ok =
  let man = Sym.man sym in
  let parts = lazy (make_parts sym) in
  let bad = bad_states ?constrain sym ~ok in
  let init = Sym.init sym in
  let rec go f_rings f_reached f_frontier b_rings b_covered b_frontier iter peak =
    Deadline.check deadline;
    Obs.Telemetry.progress ~engine:"bdd-combined" ~step:iter
      ~work:(Bdd.node_count man);
    let peak =
      max peak (max (Bdd.size man f_reached) (Bdd.size man b_covered))
    in
    (* meet check: some forward-explored state can reach bad *)
    if not (Bdd.is_zero (Bdd.and_ man f_frontier b_covered)) then
      `Meet (List.rev (f_frontier :: f_rings), List.rev b_rings @ [ b_frontier ], iter, peak)
    else
      let b_pre = pre_image ?constrain sym b_frontier in
      let b_fresh = Bdd.and_ man b_pre (Bdd.not_ man b_covered) in
      if Bdd.is_zero b_fresh then `Proved (iter, peak)
      else
        let f_img = image_with_parts ?constrain sym (Lazy.force parts) f_frontier in
        let f_fresh = Bdd.and_ man f_img (Bdd.not_ man f_reached) in
        if Bdd.is_zero f_fresh then `Proved (iter, peak)
        else
          go (f_frontier :: f_rings)
            (Bdd.or_ man f_reached f_fresh)
            f_fresh
            (b_frontier :: b_rings)
            (Bdd.or_ man b_covered b_fresh)
            b_fresh (iter + 1) peak
  in
  (* the meet check needs b_covered to include ring 0 from the start *)
  match fixpoint (fun () -> go [] init init [] bad bad 0 0) with
  | `Proved (iterations, peak) ->
    Proved { iterations; bdd_nodes = Bdd.node_count man; peak_set_size = peak }
  | `Meet (f_rings, b_rings, iterations, peak) ->
    (* some state s* in the last forward ring lies in some backward ring t:
       prefix = forward backtrack to init, suffix = walk to bad *)
    let b_array = Array.of_list b_rings in
    let last_f = List.nth f_rings (List.length f_rings - 1) in
    (* find the smallest backward ring intersecting the forward frontier *)
    let rec find_t t =
      if t >= Array.length b_array then assert false
      else
        let meet = Bdd.and_ man last_f b_array.(t) in
        if Bdd.is_zero meet then find_t (t + 1) else (t, meet)
    in
    let t, meet = find_t 0 in
    let s_star = state_bits_of sym (Bdd.any_sat man meet) in
    let prefix_states, prefix_inputs, k =
      backtrack_forward ?constrain sym f_rings s_star
    in
    let prefix =
      List.init k (fun j -> cycle_of sym ~step:j prefix_states.(j) prefix_inputs.(j))
    in
    let suffix =
      forward_walk_to_bad ?constrain sym ~ok b_array s_star t ~first_step:k
    in
    let stats =
      { iterations; bdd_nodes = Bdd.node_count man; peak_set_size = peak }
    in
    Failed (prefix @ suffix, stats)
