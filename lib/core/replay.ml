type snapshot = (string * Bitvec.t) list

type run = {
  snapshots : snapshot list;
  ok_values : bool list;
  constraint_clean : bool;
  fail_cycle : int option;
}

(* The genuine-violation rule, one lane per bit: a lane fails at the first
   cycle whose [ok] is low while its constraint has held at every cycle up to
   and including that one. [clean] and [failed] are lane masks, [fail_at]
   each lane's failing cycle. *)
type verdicts = {
  mutable clean : int;
  mutable failed : int;
  fail_at : int option array;
}

let verdicts () =
  { clean = -1; failed = 0; fail_at = Array.make Sim.Simulator.lanes None }

let observe st j ~ok ~con =
  st.clean <- st.clean land con;
  let fresh = st.clean land lnot ok land lnot st.failed in
  if fresh <> 0 then begin
    st.failed <- st.failed lor fresh;
    Array.iteri
      (fun l _ -> if (fresh lsr l) land 1 = 1 then st.fail_at.(l) <- Some j)
      st.fail_at
  end

(* settle, then apply the rule to the ok and constraint signals' lanes *)
let settle_and_observe sim st j ~ok_signal ~constraint_signal =
  Sim.Simulator.settle sim;
  let ok = Sim.Simulator.peek_lanes sim ok_signal 0 in
  let con =
    match constraint_signal with
    | None -> -1
    | Some c -> Sim.Simulator.peek_lanes sim c 0
  in
  observe st j ~ok ~con;
  ok

let run ?(defaults = []) ?constraint_signal nl =
  let sim = Sim.Simulator.create nl in
  let signals = Rtl.Netlist.signals nl in
  let inputs = nl.Rtl.Netlist.inputs in
  fun ?(capture = true) ~ok_signal stimulus ->
    Obs.Telemetry.count "diag.replays";
    Sim.Simulator.reset sim;
    let st = verdicts () in
    let snapshots = ref [] in
    let oks = ref [] in
    List.iteri
      (fun j cycle_inputs ->
        (* every netlist input is driven each cycle: the stimulus value when
           it has one, the caller's default for that input when it supplies
           one (e.g. an odd-parity constant for a parity-assumed input), zero
           otherwise (inputs the reduced engine model pruned) *)
        List.iter
          (fun (name, w) ->
            let v =
              match List.assoc_opt name cycle_inputs with
              | Some v -> v
              | None -> (
                match List.assoc_opt name defaults with
                | Some v -> v
                | None -> Bitvec.zero w)
            in
            Sim.Simulator.drive sim name v)
          inputs;
        let ok =
          settle_and_observe sim st j ~ok_signal ~constraint_signal
        in
        oks := (ok land 1 = 1) :: !oks;
        if capture then
          snapshots :=
            List.map (fun (name, _) -> (name, Sim.Simulator.peek sim name))
              signals
            :: !snapshots;
        Sim.Simulator.clock sim)
      stimulus;
    { snapshots = List.rev !snapshots;
      ok_values = List.rev !oks;
      constraint_clean = st.clean land 1 = 1;
      fail_cycle = st.fail_at.(0) }

let run_lanes ?constraint_signal nl =
  let sim = Sim.Simulator.create nl in
  let inputs = nl.Rtl.Netlist.inputs in
  fun ~ok_signal stimulus ->
    Sim.Simulator.reset sim;
    let st = verdicts () in
    List.iteri
      (fun j cycle_inputs ->
        List.iter
          (fun (name, w) ->
            Sim.Simulator.drive_lanes sim name
              (match List.assoc_opt name cycle_inputs with
              | Some words -> words
              | None -> Array.make w 0))
          inputs;
        ignore (settle_and_observe sim st j ~ok_signal ~constraint_signal);
        Sim.Simulator.clock sim)
      stimulus;
    st.fail_at

let fails r = r.fail_cycle <> None

let validate trace r =
  let n = Mc.Trace.length trace in
  if List.length r.snapshots < n then
    Error "replay was not captured over the whole trace"
  else if not r.constraint_clean then
    Error "replay violates an input-invariant assumption the engine obeyed"
  else
    match List.nth_opt r.ok_values (n - 1) with
    | None -> Error "empty trace"
    | Some true ->
      Error
        (Printf.sprintf
           "simulator does not reproduce the violation at cycle %d" (n - 1))
    | Some false ->
      (* the violation replays; now check the engine's recorded register
         values against the simulated machine, cycle by cycle *)
      let disagreement = ref None in
      List.iteri
        (fun j (c : Mc.Trace.cycle) ->
          if !disagreement = None then
            let snap = List.nth r.snapshots j in
            List.iter
              (fun (name, v) ->
                if !disagreement = None then
                  match List.assoc_opt name snap with
                  | None ->
                    disagreement :=
                      Some
                        (Printf.sprintf
                           "cycle %d: register %s absent from replay model" j
                           name)
                  | Some v' ->
                    if not (Bitvec.equal v v') then
                      disagreement :=
                        Some
                          (Printf.sprintf
                             "cycle %d: register %s is %s in the trace but \
                              %s in the replay"
                             j name (Bitvec.to_string v) (Bitvec.to_string v')))
              c.Mc.Trace.state)
        trace;
      (match !disagreement with None -> Ok () | Some msg -> Error msg)
