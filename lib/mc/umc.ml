let check_forward_partitioned ?constrain ?(deadline = Deadline.none) sym ~ok
    ~num_split_vars =
  let man = Sym.man sym in
  let bad = Reach.bad_states ?constrain sym ~ok in
  let split_vars =
    let candidates = Sym.cur_vars sym in
    let k = min num_split_vars (List.length candidates) in
    let seed = if Bdd.is_zero bad then Sym.init sym else bad in
    Pobdd.choose_splitting_vars man ~candidates ~k seed
  in
  let windows = Pobdd.windows man split_vars in
  let nwin = List.length windows in
  let windows = Array.of_list windows in
  let reached = Array.make nwin (Bdd.zero man) in
  let frontier = Array.make nwin (Bdd.zero man) in
  Array.iteri
    (fun w win ->
      let part = Bdd.and_ man win (Sym.init sym) in
      reached.(w) <- part;
      frontier.(w) <- part)
    windows;
  (* global onion rings for counterexample extraction, built lazily *)
  let global_frontier () =
    Array.fold_left (fun acc f -> Bdd.or_ man acc f) (Bdd.zero man) frontier
  in
  let rings = ref [ global_frontier () ] in
  let peak = ref 0 in
  let track_peak () =
    Array.iter (fun r -> peak := max !peak (Bdd.size man r)) reached
  in
  let hit_bad () =
    Array.exists (fun f -> not (Bdd.is_zero (Bdd.and_ man f bad))) frontier
  in
  let rec go iter =
    Deadline.check deadline;
    track_peak ();
    if hit_bad () then `Violation iter
    else begin
      (* image each live partition, then redistribute across windows *)
      let images =
        Array.map
          (fun f ->
            if Bdd.is_zero f then Bdd.zero man
            else Reach.image ?constrain sym f)
          frontier
      in
      let any_fresh = ref false in
      let new_frontier = Array.make nwin (Bdd.zero man) in
      Array.iteri
        (fun w win ->
          let incoming =
            Array.fold_left
              (fun acc img -> Bdd.or_ man acc (Bdd.and_ man win img))
              (Bdd.zero man) images
          in
          let fresh = Bdd.and_ man incoming (Bdd.not_ man reached.(w)) in
          if not (Bdd.is_zero fresh) then begin
            any_fresh := true;
            reached.(w) <- Bdd.or_ man reached.(w) fresh;
            new_frontier.(w) <- fresh
          end)
        windows;
      if not !any_fresh then `Proved iter
      else begin
        Array.blit new_frontier 0 frontier 0 nwin;
        rings := global_frontier () :: !rings;
        go (iter + 1)
      end
    end
  in
  let stats iterations =
    { Reach.iterations; bdd_nodes = Bdd.node_count man; peak_set_size = !peak }
  in
  match Obs.Telemetry.span ~cat:"bdd" "fixpoint" (fun () -> go 0) with
  | `Proved iter -> Reach.Proved (stats iter)
  | `Violation iter ->
    let trace = Reach.trace_from_rings ?constrain sym ~ok (List.rev !rings) in
    Reach.Failed (trace, stats iter)
