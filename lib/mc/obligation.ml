type 'meta t = {
  nl : Rtl.Netlist.t;
  ok_signal : string;
  constraint_signal : string option;
  budget : Engine.budget;
  strategy : Engine.strategy;
  meta : 'meta;
}

let prepare ?(budget = Engine.default_budget) ?(strategy = Engine.Auto) mdl
    ~assert_ ~assumes ~meta =
  if not (Rtl.Mdl.is_leaf mdl) then
    invalid_arg
      (Printf.sprintf
         "Obligation.prepare: %s is not a leaf module; the methodology \
          checks leaf modules only"
         mdl.Rtl.Mdl.name);
  let nl, ok_signal, constraint_signal =
    Engine.instrumented_netlist mdl ~assert_ ~assumes
  in
  { nl; ok_signal; constraint_signal; budget; strategy; meta }

let of_prepared ?(budget = Engine.default_budget) ?(strategy = Engine.Auto)
    (nl, ok_signal, constraint_signal) ~meta =
  { nl; ok_signal; constraint_signal; budget; strategy; meta }

let of_vunit ?budget ?strategy mdl vunit ~meta =
  let assumes = List.map snd (Psl.Ast.assumes vunit) in
  List.map
    (fun (prop_name, assert_) ->
      prepare ?budget ?strategy mdl ~assert_ ~assumes ~meta:(meta ~prop_name))
    (Psl.Ast.asserts vunit)

let budget_salt (b : Engine.budget) =
  let lim = function None -> "-" | Some n -> string_of_int n in
  let sec = function None -> "-" | Some s -> Printf.sprintf "%g" s in
  (* the [incremental] marker is appended only when the flag is off: default
     budgets keep the exact salt format (and hence cache keys) of earlier
     releases, while a scratch-mode run can never alias an incremental one *)
  Printf.sprintf "%s/%s/%d/%d/%d/%d/%d/%s%s" (lim b.Engine.bdd_node_limit)
    (lim b.Engine.pobdd_node_limit)
    b.Engine.pobdd_split_vars b.Engine.bmc_depth b.Engine.induction_max_k
    b.Engine.sat_max_conflicts b.Engine.ic3_max_frames
    (sec b.Engine.wall_deadline_s)
    (if b.Engine.incremental then "" else "/noinc")

(* A portfolio's key must cover its members and their budgets — two
   portfolios under one name but different member caps answer different
   questions. The salt is the same whether the portfolio is then raced or
   run sequentially, so racing never changes a cache key. *)
let rec strategy_salt = function
  | Engine.Portfolio p ->
    Printf.sprintf "portfolio:%s[%s]" p.Engine.p_name
      (String.concat ";"
         (List.map
            (fun (m : Engine.member) ->
              Printf.sprintf "%s@%s"
                (strategy_salt m.Engine.m_strategy)
                (budget_salt m.Engine.m_budget))
            p.Engine.p_members))
  | s -> Engine.strategy_name s

let fingerprint ?salt o =
  let salt =
    Printf.sprintf "%s|%s%s" (strategy_salt o.strategy) (budget_salt o.budget)
      (match salt with None -> "" | Some s -> "|" ^ s)
  in
  let roots =
    o.ok_signal
    :: (match o.constraint_signal with Some c -> [ c ] | None -> [])
  in
  Obs.Telemetry.span ~cat:"key" "fingerprint" (fun () ->
      Rtl.Canon.fingerprint ~salt ~roots o.nl)

let run o =
  Engine.check_netlist ~budget:o.budget ?constraint_signal:o.constraint_signal
    ~strategy:o.strategy o.nl ~ok_signal:o.ok_signal

let size o =
  let state = Rtl.Netlist.state_bits o.nl in
  let inputs =
    List.fold_left (fun acc (_, w) -> acc + w) 0 o.nl.Rtl.Netlist.inputs
  in
  (state, inputs)
