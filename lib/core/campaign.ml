module PG = Verifiable.Propgen
module G = Chip.Generator

type prop_result = {
  category : string;
  module_name : string;
  vunit_name : string;
  prop_name : string;
  cls : PG.prop_class;
  outcome : Mc.Engine.outcome;
  bug : Chip.Bugs.id option;
  cache_hit : bool;
  attempts : int;
  healed : bool;
}

type row = {
  cat : string;
  subs : int;
  bugs_found : int;
  p0 : int;
  p1 : int;
  p2 : int;
  p3 : int;
  total : int;
  proved : int;
  failed : int;
  resource_out : int;
  errors : int;
  time_s : float;
}

type heal_totals = {
  heal_attempted : int;
  heal_recovered : int;
  heal_proved : int;
  heal_failed : int;
  heal_exhausted : int;
  heal_unhealable : int;
  heal_spurious : int;
  heal_cegar_iters : int;
  heal_subs_proved : int;
  heal_bad_cuts : int;
  heal_pieces : int;
  heal_wall_s : float;
}

type t = {
  results : prop_result list;
  rows : row list;
  grand_total : row;
  wall_time_s : float;
  cache_hits : int;
  retries : int;
  healing : heal_totals option;
}

type work = {
  w_category : string;
  w_mdl : Rtl.Mdl.t;
  w_vunit_name : string;
  w_prop_name : string;
  w_assert : Psl.Ast.fl;
  w_assumes : Psl.Ast.fl list;
  w_cls : PG.prop_class;
  w_bug : Chip.Bugs.id option;
}

let work_items (chip : G.t) =
  List.concat_map
    (fun (c : G.category) ->
      List.concat_map
        (fun (u : G.unit_) ->
          List.concat_map
            (fun (cls, (vunit : Psl.Ast.vunit)) ->
              let assumes = List.map snd (Psl.Ast.assumes vunit) in
              List.map
                (fun (prop_name, assert_) ->
                  { w_category = c.G.cat_name;
                    w_mdl = u.G.info.Verifiable.Transform.mdl;
                    w_vunit_name = vunit.Psl.Ast.vunit_name;
                    w_prop_name = prop_name; w_assert = assert_;
                    w_assumes = assumes; w_cls = cls;
                    w_bug = u.G.leaf.Chip.Archetype.bug })
                (Psl.Ast.asserts vunit))
            (PG.all u.G.info u.G.spec))
        c.G.units)
    chip.G.categories

(* a captured worker crash, rendered as a verdict so it can flow through
   Table 2 and the CSV like any other outcome *)
let crash_outcome exn =
  { Mc.Engine.verdict = Mc.Engine.Error (Printexc.to_string exn);
    engine_used = "crash"; time_s = 0.0; iterations = 0; work_nodes = 0;
    perf = Mc.Engine.empty_perf }

(* the status/flight vocabulary for a verdict: class for tallies, short
   string for flight-recorder event details *)
let verdict_class (o : Mc.Engine.outcome) : Status.verdict_class =
  match o.Mc.Engine.verdict with
  | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ -> `Proved
  | Mc.Engine.Failed _ -> `Failed
  | Mc.Engine.Resource_out _ -> `Resource_out
  | Mc.Engine.Error _ -> `Error

let verdict_str (o : Mc.Engine.outcome) =
  match o.Mc.Engine.verdict with
  | Mc.Engine.Proved -> "proved"
  | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
  | Mc.Engine.Failed _ -> "failed"
  | Mc.Engine.Resource_out c -> "resource_out:" ^ c
  | Mc.Engine.Error _ -> "error"

let ob_name (w : work) = w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name

(* the pause before each crash retry *)
let retry_backoff_s = 0.05

(* A shared-preparation cell of {!run}: one module structure's properties,
   its digest and keys once known, and, once prepared, each property's
   obligation and fingerprint. *)
type cell = {
  c_mdl : Rtl.Mdl.t;  (* the first module of this structure *)
  c_props : (string * Psl.Ast.fl * Psl.Ast.fl list) list;
  c_lock : Mutex.t;
  c_digest : string Lazy.t;  (* forced under [c_lock] *)
  mutable c_keys : string array option;
      (* the store's cell record until preparation computes them *)
  mutable c_prepared : (unit Mc.Obligation.t * string) array option;
}

(* a key's claim queue: tickets are issued in lookup order, and the ticket
   [up] is the one allowed to read the store *)
type claim_queue = { mutable up : int; mutable issued : int }

let run ?budget ?strategy ?(progress = fun (_ : Status.snapshot) -> ())
    ?jobs ?cache ?(max_retries = 2) ?fault_hook ?self_heal ?status
    (chip : G.t) =
  let t0 = Unix.gettimeofday () in
  let cache = match cache with Some c -> c | None -> Mc.Cache.create () in
  let items = Array.of_list (work_items chip) in
  let total = Array.length items in
  let exec = Executor.of_jobs jobs in
  (* a portfolio races its members on a pool and ladders them on one job;
     [Auto] always ladders. The fingerprint salt covers the members and
     their budgets, so the cache key is the same either way *)
  let race_members =
    match strategy with
    | Some (Mc.Engine.Portfolio p) when Executor.jobs exec > 1 ->
      Some (Array.of_list p.Mc.Engine.p_members)
    | _ -> None
  in
  (* Shared preparation. The P0/P1/P2 obligations of one module differ only
     in their monitor cone, so the module-level work (inliner tables, the
     pruner's elaboration, monitor weaving, the full elaborate, the COI
     index) runs once per module via {!Mc.Engine.prepare_module}. Most
     modules of a chip are copies of one another, so a cell serves every
     module of one structure: its key is the module with its name blanked
     plus its properties' ordered formulas, compared structurally, so it
     covers every field preparation and the canonical fingerprint read. A
     cell holds each property's obligation and fingerprint, built once; an
     item takes the pair at its position and gives the netlist its own
     module's name as [top]. One mutex per cell: the first worker to reach
     it prepares for all its items, the others block briefly and reuse —
     whichever worker gets there first. A crash during preparation leaves
     the cell empty, so a retrying item re-prepares instead of inheriting a
     poisoned table.

     The store remembers each prepared cell: a cell record maps the cell's
     digest ({!Mc.Obligation.cell_digest}) to its ordered keys. An item
     whose cell has a record takes its key from it, and the cell is
     prepared only when one of those keys misses; so a cell whose every key
     hits is never prepared. A cell prepared anyway checks its fresh keys
     against the record: a difference means preparation changed without a
     {!Mc.Engine.prep_version} bump, and the record is rewritten. *)
  let slots, cells =
    (* each module's item indices, in order *)
    let groups = Hashtbl.create 128 in
    for i = total - 1 downto 0 do
      let name = items.(i).w_mdl.Rtl.Mdl.name in
      Hashtbl.replace groups name
        (i :: Option.value ~default:[] (Hashtbl.find_opt groups name))
    done;
    let cells = Hashtbl.create 64 and slots = Array.make total None in
    let order = ref [] in
    Array.iter
      (fun w ->
        let name = w.w_mdl.Rtl.Mdl.name in
        match Hashtbl.find_opt groups name with
        | None -> () (* the module's items already have their slots *)
        | Some idx ->
          Hashtbl.remove groups name;
          let props =
            List.map
              (fun i ->
                let w = items.(i) in
                (w.w_prop_name, w.w_assert, w.w_assumes))
              idx
          in
          let key =
            ( { w.w_mdl with Rtl.Mdl.name = "" },
              List.map (fun (_, a, s) -> (a, s)) props )
          in
          let cell =
            match Hashtbl.find_opt cells key with
            | Some c -> c
            | None ->
              let c =
                { c_mdl = w.w_mdl; c_props = props; c_lock = Mutex.create ();
                  c_digest =
                    lazy
                      (Mc.Obligation.cell_digest ?budget ?strategy w.w_mdl
                         ~props);
                  c_keys = None; c_prepared = None }
              in
              Hashtbl.add cells key c;
              order := c :: !order;
              c
          in
          List.iteri (fun j i -> slots.(i) <- Some (cell, j)) idx)
      items;
    (Array.map Option.get slots, Array.of_list (List.rev !order))
  in
  (* [prepared] and [keys] run under the cell's lock, taken by [locked] *)
  let locked c f =
    Mutex.lock c.c_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock c.c_lock) (fun () -> f c)
  in
  let prepared c =
    match c.c_prepared with
    | Some p -> p
    | None ->
      let mname = c.c_mdl.Rtl.Mdl.name in
      let p =
        Obs.Telemetry.span ~cat:"obligation"
          ~args:[ ("module", mname) ]
          (mname ^ ".prepare")
          (fun () ->
            Mc.Engine.prepare_module c.c_mdl ~props:c.c_props
            |> List.map (fun (_, prep) ->
                   let ob =
                     Mc.Obligation.of_prepared ?budget ?strategy prep ~meta:()
                   in
                   (ob, Mc.Obligation.fingerprint ob))
            |> Array.of_list)
      in
      let fresh = Array.map snd p in
      if c.c_keys <> Some fresh then begin
        if c.c_keys <> None then begin
          Printf.eprintf
            "warning: result cache: the cell record of %s names keys its \
             preparation no longer computes (preparation changed without a \
             prep_version bump); rewriting it\n%!"
            mname;
          Obs.Telemetry.count "cell.stale"
        end;
        Mc.Cache.add_cell cache ~digest:(Lazy.force c.c_digest)
          (Array.to_list fresh)
      end;
      c.c_keys <- Some fresh;
      c.c_prepared <- Some p;
      p
  in
  let keys c =
    match c.c_keys with
    | Some k -> k
    | None -> (
      let d = Lazy.force c.c_digest in
      match Mc.Cache.find_cell cache ~digest:d with
      | Some recorded when List.length recorded = List.length c.c_props ->
        Obs.Telemetry.count "cell.hit";
        Obs.Telemetry.event "cell.hit"
          ~detail:(d ^ " " ^ c.c_mdl.Rtl.Mdl.name);
        let k = Array.of_list recorded in
        c.c_keys <- Some k;
        k
      | Some _ | None ->
        Obs.Telemetry.count "cell.miss";
        Array.map snd (prepared c))
  in
  (* item [i]'s cache key: its cell record's, when the store has one *)
  let key_of i =
    let cell, j = slots.(i) in
    (locked cell keys).(j)
  in
  (* item [i]'s obligation and fresh cache key, preparing its cell *)
  let obligation i =
    let cell, j = slots.(i) in
    let ob, key = (locked cell prepared).(j) in
    let nl = ob.Mc.Obligation.nl in
    ( { ob with
        Mc.Obligation.nl =
          { nl with Rtl.Netlist.top = items.(i).w_mdl.Rtl.Mdl.name } },
      key )
  in
  (* The claim rule. Each key is a first-come queue: a lookup takes a
     ticket and reads the store when its ticket comes up. A hit passes the
     key on at once; a miss claims it, and the claim is released once the
     key's verdict is recorded or the item ends without one. So one key's
     siblings are answered in ticket order: the first runs the check and
     the others read its verdict, or, after an [Error], the next runs its
     own. The items take their tickets in index order ([tickets]), as one
     job does, so every row but its wall time is the same at every job
     count. *)
  let lock = Mutex.create () and moved = Condition.create () in
  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let queues = Hashtbl.create 64 in
  let enqueue key =
    with_lock (fun () ->
        let q =
          match Hashtbl.find_opt queues key with
          | Some q -> q
          | None ->
            let q = { up = 0; issued = 0 } in
            Hashtbl.add queues key q;
            q
        in
        q.issued <- q.issued + 1;
        (q, q.issued - 1))
  in
  let release key =
    with_lock (fun () ->
        let q = Hashtbl.find queues key in
        q.up <- q.up + 1;
        if q.up = q.issued then Hashtbl.remove queues key;
        Condition.broadcast moved)
  in
  (* wait for the ticket to come up, then read the store; [None] leaves
     [key] claimed by the caller *)
  let await key (q, ticket) =
    with_lock (fun () ->
        while q.up <> ticket do
          Condition.wait moved lock
        done);
    let hit = Mc.Cache.find cache ~key in
    if Option.is_some hit then release key;
    hit
  in
  (* the run's only live counters: the caller's model, or a private one *)
  let status =
    match status with
    | Some s -> s
    | None -> Status.create ~jobs:(Executor.jobs exec) ()
  in
  let strat_name =
    match strategy with
    | Some s -> Mc.Engine.strategy_name s
    | None -> "auto"
  in
  Status.set_total status total;
  Status.set_phase status "campaign";
  let progress_lock = Mutex.create () in
  let fault (w : work) ~fingerprint attempt =
    match fault_hook with
    | Some f ->
      f ~module_name:w.w_mdl.Rtl.Mdl.name ~prop_name:w.w_prop_name
        ~fingerprint ~attempt
    | None -> ()
  in
  let record ~key outcome =
    (* cache under the ORIGINAL fingerprint even when a retry ran with a
       degraded budget: the obligation answered is the same one. Error
       verdicts are not cached, so a transient crash can poison neither
       structurally identical siblings nor a resumed run. *)
    match outcome.Mc.Engine.verdict with
    | Mc.Engine.Error _ -> ()
    | _ -> Mc.Cache.add cache ~key outcome
  in
  let finish (w : work) ~cache_hit ~attempts outcome =
    let healed =
      String.equal outcome.Mc.Engine.engine_used Heal.engine_name
      && Mc.Engine.conclusive outcome
    in
    Obs.Telemetry.event "ob.done"
      ~detail:(verdict_str outcome ^ " " ^ outcome.Mc.Engine.engine_used);
    Obs.Telemetry.end_obligation ();
    (* the callback runs under the lock, so snapshots arrive in completion
       order and user printf output stays whole *)
    Mutex.lock progress_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock progress_lock) (fun () ->
        Status.finish status ~verdict:(verdict_class outcome) ~cache_hit
          ~healed ~raced:(Option.is_some race_members && attempts > 0);
        progress (Status.snapshot status));
    { category = w.w_category; module_name = w.w_mdl.Rtl.Mdl.name;
      vunit_name = w.w_vunit_name; prop_name = w.w_prop_name; cls = w.w_cls;
      outcome; bug = w.w_bug; cache_hit; attempts;
      (* a previously healed verdict can come straight from the cache; the
         attribution marks it *)
      healed }
  in
  (* the calling domain's lane takes up item [w] under cache key [key];
     [finish] idles it, as does the executor when a unit of work ends *)
  let hold w key ~engine ~attempt =
    Obs.Telemetry.begin_obligation ~ob:(ob_name w) ~key ~engine ~attempt
  in
  let take_ticket i =
    let key = key_of i in
    (key, enqueue key)
  in
  (* On a pool, every cell's keys are resolved before the items, cells in
     parallel, and every item then takes its ticket, in index order,
     before the first item opens: otherwise the items would take turns, and
     a worker whose turn needs a cell another worker is preparing would
     wait for it. One job takes each ticket as its item opens, in index
     order too, and resolves a cell when its first item reaches it, which
     keeps fewer cells alive at once. A crash while a ticket is taken is
     the item's to report. *)
  let tickets =
    if Executor.jobs exec = 1 then None
    else begin
      ignore (Executor.map_result exec (fun c -> locked c keys) cells);
      Some
        (Array.init total (fun i ->
             match take_ticket i with t -> Ok t | exception e -> Error e))
    end
  in
  (* Opening item [i] answers it from the cache, preparing it inside the
     worker only when its key misses, so instrumentation, elaboration and
     COI reduction parallelize along with the engine runs (the preparation
     is shared across every module of one structure, see [slots]). A key
     taken from a cell record that misses is asked again under the fresh
     key when the record proves stale. A miss holds the key's claim into
     [miss], which runs the retry ladder or opens the raced members and
     releases it; every other path here releases it at once. The lane
     holds the item while it waits for a claim. *)
  let open_item ~miss i =
    let w = items.(i) in
    Obs.Telemetry.span ~cat:"obligation"
      ~args:
        [ ("category", w.w_category); ("module", w.w_mdl.Rtl.Mdl.name);
          ("property", w.w_prop_name) ]
      (ob_name w)
    @@ fun () ->
    let rec answer key ticket =
      hold w key ~engine:strat_name ~attempt:1;
      match await key ticket with
      | Some outcome ->
        Executor.Done (finish w ~cache_hit:true ~attempts:0 outcome)
      | None -> (
        match obligation i with
        | ob, fresh when String.equal fresh key -> miss w ob key
        | _, fresh ->
          release key;
          answer fresh (enqueue fresh)
        | exception e ->
          release key;
          raise e)
    in
    let key, ticket =
      match tickets with
      | None -> take_ticket i
      | Some ts -> Result.fold ~ok:Fun.id ~error:raise ts.(i)
    in
    answer key ticket
  in
  (* retry ladder: a crash gets capped re-runs with a halved budget after a
     short pause; a crash on the last rung becomes an [Error] verdict
     instead of taking the campaign down *)
  let ladder w ob key =
    Fun.protect ~finally:(fun () -> release key) @@ fun () ->
    let rec attempt ob n =
      if n > 1 then hold w key ~engine:strat_name ~attempt:n;
      (* the hook runs inside the match scrutinee: a fault it injects is
         indistinguishable from the engine itself crashing *)
      match
        fault w ~fingerprint:key n;
        Mc.Obligation.run ob
      with
      | outcome -> (outcome, n)
      | exception exn ->
        if n > max_retries then (crash_outcome exn, n)
        else begin
          Status.retry status;
          Obs.Telemetry.event "ob.retry" ~detail:(Printexc.to_string exn);
          Unix.sleepf retry_backoff_s;
          attempt
            { ob with
              Mc.Obligation.budget =
                Mc.Engine.degrade_budget ob.Mc.Obligation.budget }
            (n + 1)
        end
    in
    let outcome, attempts = attempt ob 1 in
    record ~key outcome;
    finish w ~cache_hit:false ~attempts outcome
  in
  (* The racing miss: the portfolio members become the group's attempts,
     each a full engine run under its own member budget and under the
     obligation's deadline (fixed here at open — exactly where the
     sequential runner fixes it) with the scheduler's cancellation hook
     attached, both threaded into every engine loop. [Engine.settles]
     decides the group, as it stops the sequential runner, and
     [Engine.combine_portfolio] folds the attributed prefix, so a raced
     group reports byte-identically to the same portfolio laddered on one
     domain. Member crashes become non-conclusive [Error] member outcomes —
     the race continues and the sibling verdicts still decide the
     obligation. A member's whole body answers, so every group reaches
     [combine], which releases the key's claim. *)
  let race members w ob key =
    let outer =
      Mc.Deadline.of_budget ob.Mc.Obligation.budget.Mc.Engine.wall_deadline_s
    in
    Executor.Race
      { attempts = Array.length members;
        run =
          (fun k ~cancel ->
            let m = members.(k) in
            let mname = Mc.Engine.strategy_name m.Mc.Engine.m_strategy in
            let out =
              match
                hold w key ~engine:mname ~attempt:(k + 1);
                Obs.Telemetry.span ~cat:"race"
                  ~args:
                    [ ("member", mname); ("module", w.w_mdl.Rtl.Mdl.name);
                      ("property", w.w_prop_name) ]
                  (ob_name w ^ "#" ^ mname)
                @@ fun () ->
                fault w ~fingerprint:key (k + 1);
                Mc.Engine.check_netlist ~budget:m.Mc.Engine.m_budget
                  ?constraint_signal:ob.Mc.Obligation.constraint_signal
                  ~deadline:(Mc.Deadline.with_stop outer cancel)
                  ~strategy:m.Mc.Engine.m_strategy ob.Mc.Obligation.nl
                  ~ok_signal:ob.Mc.Obligation.ok_signal
              with
              | outcome -> outcome
              | exception exn -> crash_outcome exn
            in
            Obs.Telemetry.event "race.member"
              ~detail:(mname ^ " " ^ verdict_str out);
            out);
        conclusive = Mc.Engine.settles;
        combine =
          (fun outs ->
            Fun.protect ~finally:(fun () -> release key) @@ fun () ->
            (* the group settles on whichever lane ran its deciding
               member *)
            hold w key ~engine:strat_name ~attempt:1;
            let outcome = Mc.Engine.combine_portfolio outs in
            if Obs.Telemetry.active () then begin
              Obs.Telemetry.count ("race.win." ^ outcome.Mc.Engine.engine_used);
              Obs.Telemetry.count ~n:(List.length outs - 1) "race.losers"
            end;
            record ~key outcome;
            finish w ~cache_hit:false ~attempts:1 outcome) }
  in
  let results =
    (* the executor's per-item isolation is the outer safety net: anything
       that escapes the retry ladder (a crash in prepare, a raising progress
       callback) still yields a row instead of losing the campaign *)
    (let miss =
       match race_members with
       | Some members -> race members
       | None -> fun w ob key -> Executor.Done (ladder w ob key)
     in
     Executor.race_map_result exec (open_item ~miss) (Array.init total Fun.id))
    |> Array.mapi (fun i -> function
         | Ok r -> r
         | Error exn ->
           let w = items.(i) in
           { category = w.w_category; module_name = w.w_mdl.Rtl.Mdl.name;
             vunit_name = w.w_vunit_name; prop_name = w.w_prop_name;
             cls = w.w_cls; outcome = crash_outcome exn; bug = w.w_bug;
             cache_hit = false; attempts = 0;
             healed = false })
    |> Array.to_list
  in
  (* Self-healing recovery pass: every obligation whose retry ladder ended
     in [Resource_out] gets one shot at the automatic Figure 7 loop
     ({!Heal.heal_one}). Pieces go through the same cache as first-class
     obligations under cut-salted fingerprints, and a healed verdict is
     cached under the monolithic key — on a file, appended after the
     original resource-out record, so the store's later-record-wins load
     hands a resumed run the healed outcome without re-proving anything.
     Healing an obligation is deterministic (pieces run sequentially inside
     its worker and claim their keys like obligations), so every job count,
     raced or not, heals alike and solves each piece once. *)
  let results, healing =
    match self_heal with
    | None -> (results, None)
    | Some max_iters ->
      let th0 = Unix.gettimeofday () in
      Status.set_phase status "healing";
      let arr = Array.of_list results in
      let ro_idx =
        Array.init (Array.length arr) Fun.id
        |> Array.to_list
        |> List.filter (fun i -> verdict_class arr.(i).outcome = `Resource_out)
        |> Array.of_list
      in
      let run_piece (p : Heal.piece) =
        Obs.Telemetry.span ~cat:"heal"
          ~args:[ ("module", p.Heal.p_mdl.Rtl.Mdl.name);
                  ("salt", p.Heal.p_salt) ]
          p.Heal.p_label
        @@ fun () ->
        let ob =
          Mc.Obligation.prepare ?budget ?strategy p.Heal.p_mdl
            ~assert_:p.Heal.p_assert ~assumes:p.Heal.p_assumes ~meta:()
        in
        let key = Mc.Obligation.fingerprint ~salt:p.Heal.p_salt ob in
        match await key (enqueue key) with
        | Some outcome ->
          Obs.Telemetry.count "heal.piece.cached";
          outcome
        | None ->
          Fun.protect ~finally:(fun () -> release key) @@ fun () ->
          let outcome = Mc.Obligation.run ob in
          record ~key outcome;
          Obs.Telemetry.count "heal.piece.solved";
          outcome
      in
      let heal_i i =
        let w = items.(i) and key = key_of i in
        Obs.Telemetry.span ~cat:"heal"
          ~args:[ ("module", w.w_mdl.Rtl.Mdl.name);
                  ("property", w.w_prop_name) ]
          ("heal:" ^ ob_name w)
        @@ fun () ->
        hold w key ~engine:Heal.engine_name ~attempt:1;
        let hr =
          Heal.heal_one ~max_iters ~run_piece ~mdl:w.w_mdl
            ~assert_:w.w_assert ~assumes:w.w_assumes ()
        in
        (match hr.Heal.h_outcome with
        | None -> Obs.Telemetry.event "heal.unhealable"
        | Some out ->
          (* cache under the monolithic key *)
          record ~key out;
          let recovered = Mc.Engine.conclusive out in
          if recovered then Obs.Telemetry.count "heal.recovered";
          Obs.Telemetry.event
            (if recovered then "heal.recovered" else "heal.exhausted")
            ~detail:(verdict_str out));
        hr
      in
      (* Heal each distinct monolithic key once, on its first row; the
         key's other rows take that result, as the main pass's cache
         answers structural siblings, and each row still counts below *)
      let seen = Hashtbl.create 64 in
      let firsts =
        List.filter
          (fun i ->
            let key = key_of i in
            let first = not (Hashtbl.mem seen key) in
            if first then Hashtbl.add seen key ();
            first)
          (Array.to_list ro_idx)
        |> Array.of_list
      in
      let heal_outs = Executor.map_result exec heal_i firsts in
      let by_key = Hashtbl.create 64 in
      Array.iteri
        (fun j i -> Hashtbl.add by_key (key_of i) heal_outs.(j))
        firsts;
      let recovered = ref 0 and proved = ref 0 and failed = ref 0
      and exhausted = ref 0 and unhealable = ref 0 and spurious = ref 0
      and cegar = ref 0 and subs = ref 0 and bad = ref 0
      and pieces = ref 0 in
      Array.iter
        (fun i ->
          match Hashtbl.find by_key (key_of i) with
          | Error _ -> () (* a crash while healing keeps the original row *)
          | Ok hr ->
            spurious := !spurious + hr.Heal.h_spurious;
            cegar := !cegar + hr.Heal.h_finals;
            subs := !subs + hr.Heal.h_subs_proved;
            bad := !bad + hr.Heal.h_bad_cuts;
            pieces := !pieces + hr.Heal.h_pieces;
            (match hr.Heal.h_outcome with
            | None -> incr unhealable
            | Some out ->
              Status.reclassify status ~to_:(verdict_class out);
              arr.(i) <-
                { (arr.(i)) with
                  outcome = out;
                  healed = Mc.Engine.conclusive out };
              (match out.Mc.Engine.verdict with
              | Mc.Engine.Proved ->
                incr recovered;
                incr proved
              | Mc.Engine.Failed _ ->
                incr recovered;
                incr failed
              | Mc.Engine.Proved_bounded _ ->
                incr recovered
              | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
                incr exhausted)))
        ro_idx;
      ( Array.to_list arr,
        Some
          { heal_attempted = Array.length ro_idx;
            heal_recovered = !recovered; heal_proved = !proved;
            heal_failed = !failed; heal_exhausted = !exhausted;
            heal_unhealable = !unhealable; heal_spurious = !spurious;
            heal_cegar_iters = !cegar; heal_subs_proved = !subs;
            heal_bad_cuts = !bad; heal_pieces = !pieces;
            heal_wall_s = Unix.gettimeofday () -. th0 } )
  in
  let row_of cat subs cat_results =
    let by f = List.length (List.filter f cat_results) in
    let count_cls cls = by (fun r -> r.cls = cls) in
    let count_verdict v = by (fun r -> verdict_class r.outcome = v) in
    let failed_modules =
      List.sort_uniq compare
        (List.filter_map
           (fun r ->
             if verdict_class r.outcome = `Failed then Some r.module_name
             else None)
           cat_results)
    in
    (* B5/B6 live in separate decoder modules, so defects = defective
       modules here; the paper also counts defects *)
    { cat; subs; bugs_found = List.length failed_modules;
      p0 = count_cls PG.P0; p1 = count_cls PG.P1; p2 = count_cls PG.P2;
      p3 = count_cls PG.P3; total = List.length cat_results;
      proved = count_verdict `Proved; failed = count_verdict `Failed;
      resource_out = count_verdict `Resource_out;
      errors = count_verdict `Error;
      time_s =
        List.fold_left (fun acc r -> acc +. r.outcome.Mc.Engine.time_s) 0.0
          cat_results }
  in
  let rows =
    List.map
      (fun (c : G.category) ->
        row_of c.G.cat_name (List.length c.G.units)
          (List.filter (fun r -> r.category = c.G.cat_name) results))
      chip.G.categories
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let grand_total =
    { cat = "Total"; subs = sum (fun r -> r.subs);
      bugs_found = sum (fun r -> r.bugs_found); p0 = sum (fun r -> r.p0);
      p1 = sum (fun r -> r.p1); p2 = sum (fun r -> r.p2);
      p3 = sum (fun r -> r.p3); total = sum (fun (r : row) -> r.total);
      proved = sum (fun r -> r.proved); failed = sum (fun r -> r.failed);
      resource_out = sum (fun r -> r.resource_out);
      errors = sum (fun r -> r.errors);
      time_s = List.fold_left (fun a r -> a +. r.time_s) 0.0 rows }
  in
  Status.set_phase status "done";
  let count f = List.length (List.filter f results) in
  { results; rows; grand_total; wall_time_s = Unix.gettimeofday () -. t0;
    cache_hits = count (fun r -> r.cache_hit);
    retries = List.fold_left (fun a r -> a + max 0 (r.attempts - 1)) 0 results;
    healing }

let failed_results t =
  List.filter (fun r -> verdict_class r.outcome = `Failed) t.results

(* Work totals over every result row — cached rows carry the perf of the
   run that produced them and the claim rule runs each key once, so these
   totals do not depend on the job count (unlike live sink counters, which
   also count the work of cancelled racing losers). *)
type perf_totals = {
  engine_time_s : float;
  engine_attempts : int;
  fix_iterations : int;
  bdd_peak : int;
  peak_set_size : int;
  bdd_polls : int;
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  max_unroll_depth : int;
  max_final_k : int;
  max_ic3_frames : int;
}

let aggregate_perf t =
  List.fold_left
    (fun a r ->
      let p = r.outcome.Mc.Engine.perf in
      { engine_time_s = a.engine_time_s +. r.outcome.Mc.Engine.time_s;
        engine_attempts =
          a.engine_attempts + List.length p.Mc.Engine.attempts;
        fix_iterations = a.fix_iterations + p.Mc.Engine.fix_iterations;
        bdd_peak = max a.bdd_peak p.Mc.Engine.bdd_peak;
        peak_set_size = max a.peak_set_size p.Mc.Engine.peak_set_size;
        bdd_polls = a.bdd_polls + p.Mc.Engine.bdd_polls;
        sat_decisions = a.sat_decisions + p.Mc.Engine.sat_decisions;
        sat_conflicts = a.sat_conflicts + p.Mc.Engine.sat_conflicts;
        sat_propagations = a.sat_propagations + p.Mc.Engine.sat_propagations;
        sat_restarts = a.sat_restarts + p.Mc.Engine.sat_restarts;
        max_unroll_depth = max a.max_unroll_depth p.Mc.Engine.unroll_depth;
        max_final_k = max a.max_final_k p.Mc.Engine.final_k;
        max_ic3_frames = max a.max_ic3_frames p.Mc.Engine.ic3_frames })
    { engine_time_s = 0.0; engine_attempts = 0; fix_iterations = 0;
      bdd_peak = 0; peak_set_size = 0; bdd_polls = 0; sat_decisions = 0;
      sat_conflicts = 0; sat_propagations = 0; sat_restarts = 0;
      max_unroll_depth = -1; max_final_k = -1; max_ic3_frames = -1 }
    t.results

(* Results answered per winning engine, counted off the verdict-attributed
   [engine_used] of every row — cached rows carry the engine of the run
   that produced them, so like {!aggregate_perf} this is
   schedule-independent. *)
let wins_by_engine t =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun r ->
      let e = r.outcome.Mc.Engine.engine_used in
      Hashtbl.replace tbl e
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e)))
    t.results;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let resource_out_causes t =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun r ->
      match Mc.Engine.resource_cause r.outcome with
      | Some c ->
        Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))
      | None -> ())
    t.results;
  (* canonical vocabulary order first, then any non-canonical stragglers
     alphabetically, so tallies line up across runs and schema consumers *)
  let rank c =
    let rec idx i = function
      | [] -> (1, c)
      | x :: _ when String.equal x c -> (0, Printf.sprintf "%02d" i)
      | _ :: tl -> idx (i + 1) tl
    in
    idx 0 Mc.Engine.ro_causes
  in
  List.sort
    (fun (a, _) (b, _) -> compare (rank a) (rank b))
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let perf_json t =
  let module J = Obs.Json in
  let p = aggregate_perf t in
  [ ("engine_time_s", J.Float p.engine_time_s);
    ("engine_attempts", J.Int p.engine_attempts);
    ("fix_iterations", J.Int p.fix_iterations);
    ("bdd_peak", J.Int p.bdd_peak);
    ("peak_set_size", J.Int p.peak_set_size);
    ("bdd_polls", J.Int p.bdd_polls);
    ("sat_decisions", J.Int p.sat_decisions);
    ("sat_conflicts", J.Int p.sat_conflicts);
    ("sat_propagations", J.Int p.sat_propagations);
    ("sat_restarts", J.Int p.sat_restarts);
    ("max_unroll_depth", J.Int p.max_unroll_depth);
    ("max_final_k", J.Int p.max_final_k);
    ("max_ic3_frames", J.Int p.max_ic3_frames) ]

let recovery_json t =
  let module J = Obs.Json in
  Option.map
    (fun h ->
      [ ("attempted", J.Int h.heal_attempted);
        ("recovered", J.Int h.heal_recovered);
        ("healed_proved", J.Int h.heal_proved);
        ("healed_failed", J.Int h.heal_failed);
        ("exhausted", J.Int h.heal_exhausted);
        ("unhealable", J.Int h.heal_unhealable);
        ("spurious_cex", J.Int h.heal_spurious);
        ("cegar_iters", J.Int h.heal_cegar_iters);
        ("subs_proved", J.Int h.heal_subs_proved);
        ("bad_cuts", J.Int h.heal_bad_cuts);
        ("pieces", J.Int h.heal_pieces);
        ("healed_rows",
         J.Int (List.length (List.filter (fun r -> r.healed) t.results)));
        ("wall_s", J.Float h.heal_wall_s) ])
    t.healing

let to_metrics_json ?report ?jobs t =
  let module J = Obs.Json in
  let row_fields (r : row) =
    [ ("subs", J.Int r.subs); ("bugs_found", J.Int r.bugs_found);
      ("p0", J.Int r.p0); ("p1", J.Int r.p1); ("p2", J.Int r.p2);
      ("p3", J.Int r.p3); ("total", J.Int r.total);
      ("proved", J.Int r.proved); ("failed", J.Int r.failed);
      ("resource_out", J.Int r.resource_out); ("errors", J.Int r.errors);
      ("time_s", J.Float r.time_s) ]
  in
  let fields =
    [ ("schema", J.String "dicheck-metrics-v1");
      ("wall_time_s", J.Float t.wall_time_s) ]
    @ (match jobs with Some j -> [ ("jobs", J.Int j) ] | None -> [])
    @ [ ("totals",
         J.Obj
           (row_fields t.grand_total
           @ [ ("cache_hits", J.Int t.cache_hits);
               ("retries", J.Int t.retries) ]));
        ("resource_out_causes",
         J.Obj
           (List.map (fun (c, n) -> (c, J.Int n)) (resource_out_causes t)));
        ("perf", J.Obj (perf_json t));
        ("strategy_wins",
         J.Obj
           (List.map (fun (e, n) -> (e, J.Int n)) (wins_by_engine t))) ]
    @ (match recovery_json t with
      | None -> []
      | Some r -> [ ("recovery", J.Obj r) ])
    @ [
        ("categories",
         J.Obj
           (List.map (fun (r : row) -> (r.cat, J.Obj (row_fields r)))
              t.rows)) ]
    @
    match report with
    | None -> []
    | Some rep ->
      [ ("counters",
         J.Obj
           (List.map
              (fun (k, v) -> (k, J.Int v))
              (List.sort compare rep.Obs.Telemetry.counters)));
        ("histograms",
         J.Obj
           (List.map
              (fun (k, h) ->
                ( k,
                  J.Obj
                    [ ("count", J.Int h.Obs.Telemetry.h_count);
                      ("sum", J.Float h.Obs.Telemetry.h_sum);
                      ("min", J.Float h.Obs.Telemetry.h_min);
                      ("max", J.Float h.Obs.Telemetry.h_max);
                      ("buckets",
                       J.List
                         (Array.to_list
                            (Array.map
                               (fun n -> J.Int n)
                               h.Obs.Telemetry.h_buckets))) ] ))
              rep.Obs.Telemetry.hists));
        ("recording_domains", J.Int rep.Obs.Telemetry.domains);
        ("spans", J.Int (List.length rep.Obs.Telemetry.spans)) ]
  in
  J.to_string_pretty (J.Obj fields)

let write_metrics_json ?report ?jobs t path =
  let oc = open_out path in
  (try output_string oc (to_metrics_json ?report ?jobs t)
   with e ->
     close_out oc;
     raise e);
  close_out oc

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "category,module,vunit,property,class,verdict,cause,engine,wall_ms,\
     iterations,bdd_peak,sat_conflicts,cache_hit,attempts,bug,healed\n";
  List.iter
    (fun r ->
      let verdict, cause =
        match r.outcome.Mc.Engine.verdict with
        | Mc.Engine.Proved -> ("proved", "")
        | Mc.Engine.Proved_bounded d -> (Printf.sprintf "bounded:%d" d, "")
        | Mc.Engine.Failed _ -> ("failed", "")
        | Mc.Engine.Resource_out msg -> ("resource_out", msg)
        | Mc.Engine.Error msg ->
          (* commas would shift the columns; the message is free-form *)
          ("error",
           String.map (fun c -> if c = ',' then ';' else c) msg)
      in
      let p = r.outcome.Mc.Engine.perf in
      Buffer.add_string buf
        (Printf.sprintf
           "%s,%s,%s,%s,%s,%s,%s,%s,%.1f,%d,%d,%d,%b,%d,%s,%b\n"
           r.category r.module_name r.vunit_name r.prop_name
           (Verifiable.Propgen.class_name r.cls)
           verdict cause r.outcome.Mc.Engine.engine_used
           (1000.0 *. r.outcome.Mc.Engine.time_s)
           r.outcome.Mc.Engine.iterations p.Mc.Engine.bdd_peak
           p.Mc.Engine.sat_conflicts r.cache_hit r.attempts
           (match r.bug with Some b -> Chip.Bugs.name b | None -> "")
           r.healed))
    t.results;
  Buffer.contents buf

let write_csv t path =
  let oc = open_out path in
  (try output_string oc (to_csv t)
   with e ->
     close_out oc;
     raise e);
  close_out oc

let pp_table2 ppf t =
  Format.fprintf ppf
    "Module    # of   # of   P0     P1     P2     P3     Total  RO     Err    \
     Time(s)@.";
  Format.fprintf ppf
    "Name      Sub    Bug@.";
  let line (r : row) =
    Format.fprintf ppf
      "%-9s %-6d %-6d %-6d %-6d %-6d %-6d %-6d %-6d %-6d %.1f@."
      r.cat r.subs r.bugs_found r.p0 r.p1 r.p2 r.p3 r.total r.resource_out
      r.errors r.time_s
  in
  List.iter line t.rows;
  line t.grand_total;
  match resource_out_causes t with
  | [] -> ()
  | causes ->
    Format.fprintf ppf "resource-out causes:%t@." (fun ppf ->
        List.iter (fun (c, n) -> Format.fprintf ppf " %s=%d" c n) causes)
