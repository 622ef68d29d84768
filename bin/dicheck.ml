(* dicheck — command-line driver for the data-integrity methodology.

   Subcommands:
     campaign   run the formal campaign over the synthetic chip (Table 2)
     explain    diagnose one falsified obligation (replay, minimize, cone)
     report     render a campaign diagnosis directory as an HTML drill-down
     classify   bug classification, formal vs simulation (Table 3)
     area       area cost of the injection feature (Tables 1 and 4)
     fig7       divide-and-conquer partitioning experiment
     check      model-check a PSL file against a named chip archetype
     emit       print an archetype's (Verifiable) RTL as Verilog or its PSL
     fuzz       differential fuzzing: cross-engine verdicts, replay
                validation, mutation gauntlet, shrunk reproducers *)

open Cmdliner

let archetype_names =
  [ "fsm_ctrl"; "counter"; "csr"; "macro_if"; "datapath"; "decoder"; "merge";
    "fifo" ]

let make_archetype ?(bug = false) name =
  match name with
  | "fsm_ctrl" -> Chip.Archetype.fsm_ctrl ~name ~bug ()
  | "counter" -> Chip.Archetype.counter ~name ~bug ()
  | "csr" -> Chip.Archetype.csr ~name ~bug ()
  | "macro_if" -> Chip.Archetype.macro_if ~name ~bug ()
  | "datapath" -> Chip.Archetype.datapath ~name ~bug ()
  | "decoder" ->
    Chip.Archetype.decoder ~name
      ?bug:(if bug then Some (Chip.Bugs.B5, 37, 0x5A) else None)
      ()
  | "merge" -> Chip.Archetype.merge ~name ()
  | "fifo" -> Chip.Archetype.fifo ~name ()
  | other ->
    Printf.eprintf "unknown archetype %s (try: %s)\n" other
      (String.concat ", " archetype_names);
    exit 2

let strategy_names =
  [ "bdd-forward"; "bdd-backward"; "bdd-combined"; "pobdd"; "bmc";
    "k-induction"; "ic3"; "auto" ]

(* the one strategy-name parser (Engine.strategy_of_string) behind the one
   CLI error message, shared by `campaign --portfolio` and `check --strategy` *)
let strategy_of_name name =
  match Mc.Engine.strategy_of_string name with
  | Some s -> s
  | None ->
    Printf.eprintf "unknown strategy %s (try: %s)\n" name
      (String.concat ", " strategy_names);
    exit 2

let spec_of (leaf : Chip.Archetype.leaf) =
  { Verifiable.Propgen.he = leaf.Chip.Archetype.he;
    he_map = leaf.Chip.Archetype.he_map;
    parity_inputs = leaf.Chip.Archetype.parity_inputs;
    parity_outputs = leaf.Chip.Archetype.parity_outputs;
    extra = leaf.Chip.Archetype.extra_props }

(* ---- diagnosis artifacts (campaign --diagnose, explain, report) ---- *)

let write_file path s =
  let oc = open_out path in
  (try output_string oc s
   with e ->
     close_out oc;
     raise e);
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let diag_status_string (dg : Diag.Diagnosis.t) =
  match dg.Diag.Diagnosis.validation.Diag.Diagnosis.status with
  | `Confirmed -> "confirmed"
  | `Not_confirmed _ -> "not-confirmed"

(* one .diag.json + one .vcd per falsified obligation, plus an index.json
   that `dicheck report` consumes *)
let write_diagnosis_dir dir (ds : Diag.Diagnosis.diagnosed list) =
  ensure_dir dir;
  let entries =
    List.map
      (fun (d : Diag.Diagnosis.diagnosed) ->
        let a = d.Diag.Diagnosis.artifacts in
        let dg = a.Diag.Diagnosis.diag in
        let base =
          dg.Diag.Diagnosis.module_name ^ "." ^ dg.Diag.Diagnosis.prop_name
        in
        let json_file = base ^ ".diag.json" in
        let vcd_file = base ^ ".vcd" in
        write_file (Filename.concat dir json_file)
          (Obs.Json.to_string_pretty (Diag.Diagnosis.to_json dg) ^ "\n");
        write_file (Filename.concat dir vcd_file) (Diag.Diagnosis.to_vcd a);
        (dg, json_file, vcd_file))
      ds
  in
  let confirmed =
    List.length
      (List.filter (fun (dg, _, _) -> diag_status_string dg = "confirmed")
         entries)
  in
  let index =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "dicheck-diag-index-v1");
        ("falsified", Obs.Json.Int (List.length entries));
        ("confirmed", Obs.Json.Int confirmed);
        ( "failures",
          Obs.Json.List
            (List.map
               (fun ((dg : Diag.Diagnosis.t), json_file, vcd_file) ->
                 Obs.Json.Obj
                   [ ("module", Obs.Json.String dg.Diag.Diagnosis.module_name);
                     ("property", Obs.Json.String dg.Diag.Diagnosis.prop_name);
                     ( "class",
                       Obs.Json.String
                         (Diag.Diagnosis.cls_tag dg.Diag.Diagnosis.cls) );
                     ( "bug",
                       match dg.Diag.Diagnosis.bug with
                       | Some b -> Obs.Json.String (Chip.Bugs.name b)
                       | None -> Obs.Json.Null );
                     ("status", Obs.Json.String (diag_status_string dg));
                     ("diag", Obs.Json.String json_file);
                     ("vcd", Obs.Json.String vcd_file) ])
               entries) ) ]
  in
  write_file (Filename.concat dir "index.json")
    (Obs.Json.to_string_pretty index ^ "\n");
  (List.length entries, confirmed)

(* ---- campaign ---- *)

let campaign_cmd =
  let run with_bugs jobs csv cache_path no_cache deadline node_limit
      no_incremental max_retries trace metrics progress_interval diagnose
      portfolio_spec self_heal status_socket flight_path =
    try
      (* the flight recorder is always on: bounded memory, allocation-light
         writes, and it is exactly the runs that do NOT exit cleanly that
         need their recent history *)
      Obs.Telemetry.recorder_start ();
      Sys.set_signal Sys.sigusr1
        (Sys.Signal_handle
           (fun _ ->
             Obs.Telemetry.dump_flight ~reason:"sigusr1" flight_path;
             Printf.eprintf "flight recording written to %s (SIGUSR1)\n%!"
               flight_path));
      let chip = Chip.Generator.generate ~with_bugs () in
      let cache =
        if no_cache then Mc.Cache.create ()
        else Mc.Cache.open_file cache_path
      in
      (* record spans/counters only when an artifact actually wants them *)
      let recording = trace <> None || metrics <> None in
      if recording then Obs.Telemetry.start ();
      let budget =
        match (deadline, node_limit, no_incremental) with
        | None, None, false -> None
        | _ ->
          Some
            { Mc.Engine.default_budget with
              Mc.Engine.wall_deadline_s = deadline;
              bdd_node_limit =
                (match node_limit with
                 | Some _ -> node_limit
                 | None -> Mc.Engine.default_budget.Mc.Engine.bdd_node_limit);
              pobdd_node_limit =
                (match node_limit with
                 | Some _ -> node_limit
                 | None ->
                   Mc.Engine.default_budget.Mc.Engine.pobdd_node_limit);
              incremental = not no_incremental }
      in
      let strategy =
        match portfolio_spec with
        | None -> None
        | Some spec -> (
          let base = Option.value ~default:Mc.Engine.default_budget budget in
          if spec = "default" then
            Some (Mc.Engine.Portfolio (Mc.Engine.default_portfolio base))
          else
            let members =
              List.map
                (fun n ->
                  { Mc.Engine.m_strategy = strategy_of_name n;
                    m_budget = base })
                (String.split_on_char ',' spec)
            in
            match Mc.Engine.portfolio ~name:spec members with
            | p -> Some (Mc.Engine.Portfolio p)
            | exception Invalid_argument msg ->
              Printf.eprintf "invalid --portfolio %s: %s\n" spec msg;
              exit 2)
      in
      let warm = Mc.Cache.length cache in
      (* the status model always backs the stderr heartbeat; --status-socket
         additionally serves it to `dicheck top` *)
      let status = Core.Status.create ~jobs:(max 1 jobs) () in
      let server =
        Option.map (fun p -> Core.Status.serve status ~path:p) status_socket
      in
      Option.iter
        (fun p -> Printf.eprintf "status socket listening on %s\n%!" p)
        status_socket;
      let last = ref 0.0 in
      let progress (s : Core.Status.snapshot) =
        let now = Unix.gettimeofday () in
        if now -. !last > progress_interval then begin
          last := now;
          Printf.eprintf
            "... %d/%d (%.0fs; %d cache hits, %d retries, %d healed, %d \
             raced%s)\n%!"
            s.Core.Status.s_done s.Core.Status.s_total s.Core.Status.s_elapsed_s
            s.Core.Status.s_cache_hits s.Core.Status.s_retries
            s.Core.Status.s_healed s.Core.Status.s_raced
            (match s.Core.Status.s_eta_s with
             | Some e -> Printf.sprintf "; ETA %.0fs" e
             | None -> "")
        end
      in
      let c =
        try
          Core.Campaign.run ?budget ?strategy ~progress ~jobs ~cache
            ~max_retries ?self_heal ~status chip
        with e ->
          Option.iter Core.Status.shutdown server;
          raise e
      in
      Option.iter Core.Status.shutdown server;
      Mc.Cache.close cache;
      (* diagnose before stopping telemetry so the diag spans/counters land
         in the --trace and --metrics artifacts *)
      (match diagnose with
       | None -> ()
       | Some dir ->
         let ds = Diag.Diagnosis.diagnose_campaign ~jobs chip c in
         let n, confirmed = write_diagnosis_dir dir ds in
         Printf.eprintf
           "diagnosis written to %s (%d falsified, %d confirmed by replay)\n"
           dir n confirmed);
      let report =
        if recording then Some (Obs.Telemetry.stop ()) else None
      in
      (match (trace, report) with
       | Some path, Some rep ->
         Obs.Trace_export.write path rep;
         Printf.eprintf "trace written to %s (load in ui.perfetto.dev)\n" path
       | _ -> ());
      (match metrics with
       | Some path ->
         Core.Campaign.write_metrics_json ?report ~jobs c path;
         Printf.eprintf "metrics written to %s\n" path
       | None -> ());
      Format.printf "%a" Core.Campaign.pp_table2 c;
      List.iter
        (fun (r : Core.Campaign.prop_result) ->
          Printf.printf "failed: %s %s\n" r.Core.Campaign.module_name
            r.Core.Campaign.prop_name)
        (Core.Campaign.failed_results c);
      Printf.printf
        "wall time %.1fs, %d jobs; cache: %d hits, %d proved fresh (%d warm \
         entries loaded)\n"
        c.Core.Campaign.wall_time_s (max 1 jobs) c.Core.Campaign.cache_hits
        (List.length c.Core.Campaign.results - c.Core.Campaign.cache_hits)
        warm;
      if c.Core.Campaign.retries > 0 then
        Printf.printf "robustness: %d crash retries\n" c.Core.Campaign.retries;
      if Option.is_some strategy then
        Printf.printf "strategy wins:%s\n"
          (String.concat ""
             (List.map
                (fun (e, n) -> Printf.sprintf " %s=%d" e n)
                (Core.Campaign.wins_by_engine c)));
      (match c.Core.Campaign.healing with
       | None -> ()
       | Some h ->
         let healed_rows =
           List.length
             (List.filter
                (fun (r : Core.Campaign.prop_result) -> r.Core.Campaign.healed)
                c.Core.Campaign.results)
         in
         Printf.printf
           "healed: %d of %d resource-outs recovered (%d proved, %d real \
            failures; %d spurious cex, %d CEGAR iterations, %d exhausted, \
            %d unhealable; %d healed rows total)\n"
           h.Core.Campaign.heal_recovered h.Core.Campaign.heal_attempted
           h.Core.Campaign.heal_proved h.Core.Campaign.heal_failed
           h.Core.Campaign.heal_spurious h.Core.Campaign.heal_cegar_iters
           h.Core.Campaign.heal_exhausted h.Core.Campaign.heal_unhealable
           healed_rows);
      (match csv with
       | Some path ->
         Core.Campaign.write_csv c path;
         Printf.eprintf "per-property results written to %s\n" path
       | None -> ());
      (* 0 all proved; 1 property failures; 2 no failures but unresolved
         (resource-out or error) verdicts remain; 3 internal error *)
      let g = c.Core.Campaign.grand_total in
      if Obs.Telemetry.recording ()
         && g.Core.Campaign.resource_out + g.Core.Campaign.errors > 0
      then begin
        (* unresolved verdicts: dump the recent event history alongside so
           the deadline/error is not a black box *)
        let reason =
          if g.Core.Campaign.errors > 0 then "error-verdicts"
          else "resource-out"
        in
        Obs.Telemetry.dump_flight ~reason flight_path;
        Printf.eprintf "flight recording written to %s (%s)\n" flight_path
          reason
      end;
      if g.Core.Campaign.failed > 0 then exit 1
      else if g.Core.Campaign.resource_out + g.Core.Campaign.errors > 0 then
        exit 2
      else exit 0
    with e ->
      if Obs.Telemetry.recording () then begin
        (try Obs.Telemetry.dump_flight ~reason:"crash" flight_path
         with _ -> ());
        Printf.eprintf "flight recording written to %s (crash)\n" flight_path
      end;
      Printf.eprintf "dicheck: internal error: %s\n" (Printexc.to_string e);
      exit 3
  in
  let with_bugs =
    Arg.(value & opt bool true & info [ "with-bugs" ] ~doc:"Seed the 7 bugs.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Check N properties in parallel (OCaml domains); 1 runs \
                   sequentially.")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"PATH"
             ~doc:"Write per-property results (verdict, engine, time, cache \
                   hit) as CSV.")
  in
  let cache_path =
    Arg.(value & opt string ".dicheck.cache"
         & info [ "cache" ] ~docv:"PATH"
             ~doc:"Persistent structural result cache. Every verdict is \
                   appended to it (fsync'd) as it is recorded, and so are \
                   the keys of each module structure once it is prepared, \
                   so a repeated campaign neither re-proves nor re-prepares \
                   what the cache holds, and a killed one resumes where it \
                   stopped when run again with the same cache.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Do not read or write the persistent cache (verdicts are \
                   still deduplicated within the run).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECS"
             ~doc:"Wall-clock deadline per obligation; an overrunning check \
                   yields a resource-out verdict instead of hanging a \
                   worker.")
  in
  let node_limit =
    Arg.(value & opt (some int) None
         & info [ "node-limit" ] ~docv:"N"
             ~doc:"Cap the BDD/POBDD engines at N live nodes per obligation \
                   (a starvation budget); an overrunning check yields a \
                   resource-out verdict. Pair with --self-heal to recover \
                   starved obligations by partitioning.")
  in
  let no_incremental =
    Arg.(value & flag
         & info [ "no-incremental" ]
             ~doc:"Disable incremental SAT solving: BMC, k-induction and IC3 \
                   rebuild their CNF encodings from scratch at every depth \
                   instead of keeping one live solver per obligation. \
                   Verdicts are identical either way (the differential suite \
                   enforces it); this is the slow oracle mode. Cache keys \
                   carry a distinct salt, so scratch runs never answer \
                   incremental ones.")
  in
  let max_retries =
    Arg.(value & opt int 2
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"Re-run a crashed obligation up to N times with a halved \
                   budget before recording an error verdict.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"Write a Chrome trace_event JSON of the run (one lane per \
                   worker domain; load it in chrome://tracing or \
                   ui.perfetto.dev).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Write a JSON metrics summary: Table 2 totals per \
                   category, aggregated engine counters, and resource-out \
                   causes.")
  in
  let progress_interval =
    Arg.(value & opt float 10.0
         & info [ "progress-interval" ] ~docv:"SECS"
             ~doc:"Seconds between progress heartbeats on stderr.")
  in
  let diagnose =
    Arg.(value & opt (some string) None
         & info [ "diagnose" ] ~docv:"DIR"
             ~doc:"Diagnose every falsified obligation after the run: \
                   cross-validate the counterexample by simulator replay, \
                   minimize it, compute its fault cone, and write one \
                   .diag.json and one annotated .vcd per failure (plus \
                   index.json) into DIR.")
  in
  let portfolio =
    Arg.(value
         & opt ~vopt:(Some "default") (some string) None
         & info [ "portfolio" ] ~docv:"SPEC"
             ~doc:"Check each obligation with a portfolio of engine \
                   strategies instead of the auto portfolio. SPEC \
                   is $(b,default) (a node-capped bdd-combined probe, then \
                   k-induction, ic3, and a full-budget pobdd backstop) or a \
                   comma-separated list of strategy names. With --jobs > 1 \
                   the members race per obligation and the first conclusive \
                   verdict cancels its siblings; verdicts are identical to \
                   running the same portfolio sequentially.")
  in
  let self_heal =
    Arg.(value
         & opt ~vopt:(Some 4) (some int) None
         & info [ "self-heal" ] ~docv:"MAX-ITERS"
             ~doc:"Recover resource-out obligations by automatic Figure 7 \
                   partitioning: mine parity checkpoints in the failing \
                   cone, prove the cut sub-properties, re-check the \
                   property with the cuts freed (assume-guarantee), and \
                   refine spurious counterexamples by concrete replay \
                   (CEGAR) — at most MAX-ITERS (default 4) freed-cut \
                   checks per obligation.")
  in
  let status_socket =
    Arg.(value & opt (some string) None
         & info [ "status-socket" ] ~docv:"PATH"
             ~doc:"Serve live campaign status (schema dicheck-status-v1) \
                   over a Unix domain socket at PATH: one JSON snapshot per \
                   connection. Read it with $(b,dicheck top PATH), or any \
                   client that can connect and read to EOF. Purely \
                   observational; verdicts are identical with or without \
                   it.")
  in
  let flight_path =
    Arg.(value & opt string "dicheck-flight.json"
         & info [ "flight" ] ~docv:"PATH"
             ~doc:"Destination of flight-recorder dumps (schema \
                   dicheck-flight-v2). The recorder is always on; a dump is \
                   written on SIGUSR1, on an internal error, and when the \
                   campaign ends with unresolved (resource-out or error) \
                   verdicts.")
  in
  Cmd.v (Cmd.info "campaign" ~doc:"Run the full formal campaign (Table 2).")
    Term.(const run $ with_bugs $ jobs $ csv $ cache_path $ no_cache
          $ deadline $ node_limit $ no_incremental $ max_retries $ trace
          $ metrics $ progress_interval $ diagnose $ portfolio $ self_heal
          $ status_socket $ flight_path)

(* ---- explain ---- *)

let explain_cmd =
  let run obligation with_bugs json_path vcd_path =
    try
      let chip = Chip.Generator.generate ~with_bugs () in
      let works = Core.Campaign.work_items chip in
      let matches (w : Core.Campaign.work) =
        w.Core.Campaign.w_mdl.Rtl.Mdl.name ^ "." ^ w.Core.Campaign.w_prop_name
        = obligation
      in
      match List.find_opt matches works with
      | None ->
        Printf.eprintf
          "unknown obligation %s (expected MODULE.PROPERTY; `dicheck \
           campaign` prints the falsified ones)\n"
          obligation;
        exit 3
      | Some w ->
        let outcome =
          Mc.Engine.check_property w.Core.Campaign.w_mdl
            ~assert_:w.Core.Campaign.w_assert
            ~assumes:w.Core.Campaign.w_assumes
        in
        (match outcome.Mc.Engine.verdict with
         | Mc.Engine.Failed trace ->
           let a =
             Diag.Diagnosis.diagnose
               ?he_signal:(Diag.Diagnosis.he_signal_of chip w)
               w trace
           in
           let dg = a.Diag.Diagnosis.diag in
           let v = dg.Diag.Diagnosis.validation in
           Printf.printf "obligation:   %s (%s%s)\n" obligation
             (Diag.Diagnosis.cls_tag dg.Diag.Diagnosis.cls)
             (match dg.Diag.Diagnosis.bug with
              | Some b -> ", seeded bug " ^ Chip.Bugs.name b
              | None -> "");
           Printf.printf "validation:   %s\n"
             (match v.Diag.Diagnosis.status with
              | `Confirmed ->
                "confirmed — the simulator reproduces the violation"
              | `Not_confirmed reason -> "NOT confirmed: " ^ reason);
           (match v.Diag.Diagnosis.fail_cycle with
            | Some c -> Printf.printf "fails at:     cycle %d\n" c
            | None -> ());
           Printf.printf "minimized:    %d -> %d cycles, %d -> %d care bits\n"
             dg.Diag.Diagnosis.original_cycles
             dg.Diag.Diagnosis.minimized_cycles
             dg.Diag.Diagnosis.original_care_bits
             dg.Diag.Diagnosis.minimized_care_bits;
           (match dg.Diag.Diagnosis.he_signal with
            | Some h -> Printf.printf "HE signal:    %s\n" h
            | None -> ());
           List.iter
             (fun (c : Diag.Cone.cycle_cone) ->
               if c.Diag.Cone.corrupted <> [] then
                 Printf.printf "cycle %-2d cone: %s\n" c.Diag.Cone.cone_step
                   (String.concat ", " c.Diag.Cone.corrupted))
             dg.Diag.Diagnosis.cone;
           if dg.Diag.Diagnosis.golden_failed then
             Printf.printf
               "note:         the golden legal-input run also fails; the \
                cone is best-effort\n";
           Printf.printf "\n%s\n" dg.Diag.Diagnosis.explanation;
           (match json_path with
            | Some p ->
              write_file p
                (Obs.Json.to_string_pretty (Diag.Diagnosis.to_json dg) ^ "\n");
              Printf.eprintf "diagnosis JSON written to %s\n" p
            | None -> ());
           (match vcd_path with
            | Some p ->
              write_file p (Diag.Diagnosis.to_vcd a);
              Printf.eprintf "annotated waveform written to %s\n" p
            | None -> ());
           exit
             (match v.Diag.Diagnosis.status with
              | `Confirmed -> 0
              | `Not_confirmed _ -> 1)
         | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ ->
           Printf.printf
             "not falsified: %s holds — nothing to diagnose\n" obligation;
           exit 2
         | Mc.Engine.Resource_out m ->
           Printf.printf "unresolved (resource out: %s) — no counterexample \
                          to diagnose\n" m;
           exit 2
         | Mc.Engine.Error m ->
           Printf.printf "unresolved (engine error: %s)\n" m;
           exit 2)
    with e ->
      Printf.eprintf "dicheck: internal error: %s\n" (Printexc.to_string e);
      exit 3
  in
  let obligation =
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"MODULE.PROPERTY"
             ~doc:"The obligation to diagnose, as `dicheck campaign` prints \
                   failures (e.g. a_fsm_ctrl00.p0_reports_injection).")
  in
  let with_bugs =
    Arg.(value & opt bool true & info [ "with-bugs" ] ~doc:"Seed the 7 bugs.")
  in
  let json_path =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Write the structured diagnosis (schema dicheck-diag-v1).")
  in
  let vcd_path =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"PATH"
             ~doc:"Write the minimized counterexample as an annotated VCD \
                   waveform (stimulus, registers, outputs, HE bus, monitor \
                   nets).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Diagnose one falsified obligation: cross-validate by simulator \
             replay, minimize the counterexample, compute the fault cone. \
             Exits 0 when the replay confirms the violation, 1 when it does \
             not, 2 when the property is not falsified.")
    Term.(const run $ obligation $ with_bugs $ json_path $ vcd_path)

(* ---- report ---- *)

let report_cmd =
  let run dir html_out =
    let html_out =
      match html_out with
      | Some p -> p
      | None -> Filename.concat dir "report.html"
    in
    let fail msg =
      Printf.eprintf "dicheck report: %s\n" msg;
      exit 3
    in
    let parse_or_fail what src =
      match Obs.Json.parse src with
      | Ok j -> j
      | Error m -> fail (Printf.sprintf "%s: %s" what m)
    in
    let index_path = Filename.concat dir "index.json" in
    let src =
      try read_file index_path
      with Sys_error m -> fail ("cannot read " ^ m)
    in
    let idx = parse_or_fail index_path src in
    let failures =
      match Option.bind (Obs.Json.member "failures" idx) Obs.Json.to_list with
      | Some l -> l
      | None -> fail (index_path ^ ": no \"failures\" list")
    in
    let entries =
      List.map
        (fun f ->
          let str name =
            match Option.bind (Obs.Json.member name f) Obs.Json.to_str with
            | Some s -> s
            | None ->
              fail (Printf.sprintf "%s: failure entry lacks %S" index_path
                      name)
          in
          let diag_file = str "diag" in
          let vcd_file = str "vcd" in
          let dsrc =
            try read_file (Filename.concat dir diag_file)
            with Sys_error m -> fail ("cannot read " ^ m)
          in
          match Diag.Diagnosis.of_json (parse_or_fail diag_file dsrc) with
          | Ok dg -> { Diag.Report_html.diag = dg; vcd = Some vcd_file }
          | Error m -> fail (Printf.sprintf "%s: %s" diag_file m))
        failures
    in
    Diag.Report_html.write html_out entries;
    Printf.printf "report written to %s (%d falsified obligations)\n" html_out
      (List.length entries)
  in
  let dir =
    Arg.(required
         & opt (some dir) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Diagnosis directory produced by `dicheck campaign \
                   --diagnose DIR`.")
  in
  let html_out =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"PATH"
             ~doc:"Output HTML file (default DIR/report.html).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a campaign diagnosis directory as a self-contained HTML \
             drill-down report.")
    Term.(const run $ dir $ html_out)

(* ---- classify ---- *)

let classify_cmd =
  let run cycles =
    let chip = Chip.Generator.generate () in
    Format.printf "%a" Core.Classify.pp_table3 (Core.Classify.run ~cycles chip)
  in
  let cycles =
    Arg.(value & opt int 10_000
         & info [ "cycles" ] ~doc:"Simulation budget per run.")
  in
  Cmd.v (Cmd.info "classify" ~doc:"Classify the seeded bugs (Table 3).")
    Term.(const run $ cycles)

(* ---- area ---- *)

let area_cmd =
  let run () =
    let chip = Chip.Generator.generate () in
    Format.printf "%a@." Core.Report.pp_table1 (Core.Report.table1 chip);
    Format.printf "%a" Core.Report.pp_table4 (Core.Report.table4 chip);
    Format.printf "%a" Core.Report.pp_timing (Core.Report.timing_impact chip)
  in
  Cmd.v (Cmd.info "area" ~doc:"Area and timing impact (Tables 1, 4).")
    Term.(const run $ const ())

(* ---- fig7 ---- *)

let fig7_cmd =
  let run width limit =
    Format.printf "%a"
      Core.Report.pp_fig7
      (Core.Report.fig7 ~payload_width:width ~node_limit:limit ())
  in
  let width =
    Arg.(value & opt int 16 & info [ "width" ] ~doc:"Stream payload width.")
  in
  let limit =
    Arg.(value & opt int 100_000 & info [ "node-limit" ] ~doc:"BDD node budget.")
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Divide-and-conquer partitioning experiment (Fig 7).")
    Term.(const run $ width $ limit)

(* ---- check ---- *)

let check_cmd =
  let run arch bug psl_file strategy no_incremental =
    let strategy = Option.map strategy_of_name strategy in
    let budget =
      if no_incremental then
        Some { Mc.Engine.default_budget with Mc.Engine.incremental = false }
      else None
    in
    let leaf = make_archetype ~bug arch in
    let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
    let vunits =
      match psl_file with
      | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let src = really_input_string ic len in
        close_in ic;
        (try Psl.Parser.vunits_of_string src with
         | Psl.Parser.Error (msg, pos) ->
           Printf.eprintf "PSL parse error at offset %d: %s\n" pos msg;
           exit 1)
      | None ->
        List.map snd (Verifiable.Propgen.all info (spec_of leaf))
    in
    let failures = ref 0 in
    List.iter
      (fun vunit ->
        List.iter
          (fun (name, (o : Mc.Engine.outcome)) ->
            let verdict =
              match o.Mc.Engine.verdict with
              | Mc.Engine.Proved -> "proved"
              | Mc.Engine.Proved_bounded d ->
                Printf.sprintf "no violation up to depth %d" d
              | Mc.Engine.Failed _ ->
                incr failures;
                "FAILED"
              | Mc.Engine.Resource_out m -> "resource out: " ^ m
              | Mc.Engine.Error m -> "engine error: " ^ m
            in
            Printf.printf "%-28s %-30s %s (%.3fs)\n" name verdict
              o.Mc.Engine.engine_used o.Mc.Engine.time_s)
          (Mc.Engine.check_vunit ?budget ?strategy
             info.Verifiable.Transform.mdl vunit))
      vunits;
    exit (if !failures > 0 then 1 else 0)
  in
  let arch =
    (* derived from [archetype_names] so the doc can't drift from what
       [make_archetype] accepts *)
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"ARCHETYPE"
             ~doc:(Printf.sprintf "Leaf archetype (%s)."
                     (String.concat ", " archetype_names)))
  in
  let bug = Arg.(value & flag & info [ "bug" ] ~doc:"Seed the archetype's bug.") in
  let psl =
    Arg.(value & opt (some file) None
         & info [ "psl" ] ~doc:"PSL file to check instead of the generated \
                                stereotype properties.")
  in
  let strategy =
    Arg.(value & opt (some string) None
         & info [ "strategy" ] ~docv:"NAME"
             ~doc:(Printf.sprintf
                     "Engine strategy to use instead of auto (%s)."
                     (String.concat ", " strategy_names)))
  in
  let no_incremental =
    Arg.(value & flag
         & info [ "no-incremental" ]
             ~doc:"Rebuild SAT encodings from scratch at every depth instead \
                   of keeping one live solver (the slow differential-oracle \
                   mode; verdicts are identical).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Model-check PSL against an archetype's Verifiable RTL.")
    Term.(const run $ arch $ bug $ psl $ strategy $ no_incremental)

(* ---- infer ---- *)

let infer_cmd =
  let run arch =
    let leaf = make_archetype arch in
    match Verifiable.Spec_infer.infer leaf.Chip.Archetype.mdl with
    | Error msg ->
      Printf.eprintf "inference failed: %s\n" msg;
      exit 1
    | Ok spec ->
      Printf.printf "HE signal:      %s\n" spec.Verifiable.Propgen.he;
      Printf.printf "parity inputs:  %s\n"
        (String.concat ", " spec.Verifiable.Propgen.parity_inputs);
      Printf.printf "parity outputs: %s\n"
        (String.concat ", " spec.Verifiable.Propgen.parity_outputs);
      List.iter
        (fun (src, bit) -> Printf.printf "checker map:    %s -> HE[%d]\n" src bit)
        spec.Verifiable.Propgen.he_map;
      let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
      let p0, p1, p2, p3 = Verifiable.Propgen.counts info spec in
      Printf.printf "properties:     P0=%d P1=%d P2=%d P3=%d\n" p0 p1 p2 p3
  in
  let arch =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ARCHETYPE")
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Infer the data-integrity specification from an archetype's RTL.")
    Term.(const run $ arch)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run seed count budget out_dir inject no_gauntlet trace metrics =
    try
      let recording = trace <> None || metrics <> None in
      if recording then Obs.Telemetry.start ();
      let config =
        { Qa.Fuzz.seed; count; budget_s = budget; out_dir; inject;
          gauntlet = not no_gauntlet }
      in
      let s = Qa.Fuzz.run config in
      let report = if recording then Some (Obs.Telemetry.stop ()) else None in
      (match (trace, report) with
       | Some path, Some rep ->
         Obs.Trace_export.write path rep;
         Printf.eprintf "trace written to %s (load in ui.perfetto.dev)\n" path
       | _ -> ());
      (match (metrics, report) with
       | Some path, rep ->
         let counters =
           match rep with
           | None -> []
           | Some r ->
             List.map
               (fun (k, v) -> (k, Obs.Json.Int v))
               r.Obs.Telemetry.counters
         in
         write_file path
           (Obs.Json.to_string_pretty
              (Obs.Json.Obj
                 [ ("schema", Obs.Json.String "dicheck-fuzz-metrics-v1");
                   ("summary", Qa.Fuzz.summary_json s);
                   ("counters", Obs.Json.Obj counters) ])
           ^ "\n");
         Printf.eprintf "metrics written to %s\n" path
       | None, _ -> ());
      Printf.printf
        "fuzz: %d/%d designs, %d obligations, %d engine runs in %.1fs%s\n"
        s.Qa.Fuzz.cases_run count s.Qa.Fuzz.obligations s.Qa.Fuzz.engine_runs
        s.Qa.Fuzz.elapsed_s
        (if s.Qa.Fuzz.budget_exhausted then " (wall budget exhausted)" else "");
      if s.Qa.Fuzz.kill_table <> [] then begin
        Printf.printf "mutation gauntlet:\n";
        List.iter
          (fun (b, d, t) ->
            Printf.printf "  %-3s (%s) %d/%d killed\n" (Chip.Bugs.name b)
              (Qa.Shrink.class_label (Chip.Bugs.property_class b))
              d t)
          s.Qa.Fuzz.kill_table;
        List.iter
          (fun (id, b, why) ->
            Printf.printf "  MISSED %s on %s: %s\n" (Chip.Bugs.name b) id why)
          s.Qa.Fuzz.gauntlet_misses
      end;
      List.iter
        (fun (d : Qa.Differential.discrepancy) ->
          Printf.printf "DISCREPANCY [%s] %s%s: %s\n"
            (Qa.Differential.kind_name d.Qa.Differential.kind)
            d.Qa.Differential.case_id
            (match d.Qa.Differential.prop with
             | Some p -> "." ^ p
             | None -> "")
            d.Qa.Differential.detail)
        s.Qa.Fuzz.discrepancies;
      List.iter
        (fun (sh : Qa.Fuzz.shrunk) ->
          Printf.printf "shrunk: %s -> %s (%d steps, %d evals)\n"
            (Qa.Gen.describe sh.Qa.Fuzz.from_params)
            (Qa.Gen.describe sh.Qa.Fuzz.to_params)
            sh.Qa.Fuzz.steps sh.Qa.Fuzz.evals;
          List.iter (Printf.printf "  reproducer: %s\n") sh.Qa.Fuzz.files)
        s.Qa.Fuzz.shrunk;
      if Qa.Fuzz.ok s then begin
        Printf.printf "fuzz: OK — no discrepancies, 100%% mutation kill\n";
        exit 0
      end
      else exit 1
    with e ->
      Printf.eprintf "dicheck: internal error: %s\n" (Printexc.to_string e);
      exit 3
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Generator seed; the whole run is a deterministic function \
                   of (seed, count).")
  in
  let count =
    Arg.(value & opt int 50
         & info [ "count" ] ~docv:"K" ~doc:"Number of designs to generate.")
  in
  let budget =
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECS"
             ~doc:"Stop starting new designs after SECS of wall time (the \
                   design in flight still completes).")
  in
  let out_dir =
    Arg.(value & opt string "fuzz-failures"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for shrunk reproducers (.v, .psl, .json); \
                   created on first failure.")
  in
  let inject =
    Arg.(value & opt (some int) None
         & info [ "inject-disagreement" ] ~docv:"INDEX"
             ~doc:"Test hook: report an artificial discrepancy on the \
                   INDEX-th design, exercising the shrinking and exit-code \
                   paths without a real engine bug.")
  in
  let no_gauntlet =
    Arg.(value & flag
         & info [ "no-gauntlet" ]
             ~doc:"Skip the mutation gauntlet (Table 3 bug classes seeded \
                   into each design).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"Write a Chrome trace_event JSON of the fuzz run.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Write a JSON metrics summary (designs/s, obligations/s, \
                   kill table, telemetry counters).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing of the engines: run every obligation of \
             seeded-random Verifiable-RTL designs through each engine \
             strategy plus bounded exhaustive simulation, replay-validate \
             every counterexample, seed Table 3 mutations and require 100% \
             kill, and shrink any disagreement to a minimal reproducer. \
             Exits non-zero on any discrepancy.")
    Term.(const run $ seed $ count $ budget $ out_dir $ inject $ no_gauntlet
          $ trace $ metrics)

(* ---- emit ---- *)

let emit_cmd =
  let run arch what =
    let leaf = make_archetype arch in
    let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
    match what with
    | "rtl" -> print_string (Rtl.Verilog.module_to_string leaf.Chip.Archetype.mdl)
    | "verifiable" ->
      print_string (Rtl.Verilog.module_to_string info.Verifiable.Transform.mdl)
    | "psl" ->
      List.iter
        (fun (_, v) -> print_string (Psl.Print.vunit_to_string v))
        (Verifiable.Propgen.all info (spec_of leaf))
    | other ->
      Printf.eprintf "unknown output %s (rtl | verifiable | psl)\n" other;
      exit 2
  in
  let arch =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ARCHETYPE")
  in
  let what =
    Arg.(value & pos 1 string "verifiable"
         & info [] ~docv:"WHAT" ~doc:"rtl | verifiable | psl")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Print an archetype as Verilog or its generated PSL.")
    Term.(const run $ arch $ what)

(* ---- top: live status client ---- *)

let read_status_socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let buf = Buffer.create 4096 in
      let b = Bytes.create 4096 in
      let rec go () =
        let n = Unix.read fd b 0 (Bytes.length b) in
        if n > 0 then begin
          Buffer.add_subbytes buf b 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let render_status j =
  let module J = Obs.Json in
  let str k = Option.value ~default:"?" (Option.bind (J.member k j) J.to_str) in
  let int k = Option.value ~default:0 (Option.bind (J.member k j) J.to_int) in
  let flt k =
    Option.value ~default:0.0 (Option.bind (J.member k j) J.to_float)
  in
  Printf.printf "dicheck campaign — phase %s, %d jobs, %.0fs elapsed\n"
    (str "phase") (int "jobs") (flt "elapsed_s");
  Printf.printf
    "%d/%d done  (%d proved, %d failed, %d resource-out, %d errors)\n"
    (int "done") (int "total") (int "proved") (int "failed")
    (int "resource_out") (int "errors");
  Printf.printf
    "%d cache hits, %d retries, %d healed, %d raced; %.1f ob/s%s\n"
    (int "cache_hits") (int "retries") (int "healed") (int "raced")
    (flt "rate_per_s")
    (match Option.bind (J.member "eta_s" j) J.to_float with
     | Some e -> Printf.sprintf ", ETA %.0fs" e
     | None -> "");
  match Option.bind (J.member "in_flight" j) J.to_list with
  | None | Some [] -> print_string "(no obligations in flight)\n"
  | Some flying ->
    Printf.printf "%-5s %-34s %-14s %3s %8s  %s\n" "lane" "obligation"
      "engine" "try" "secs" "progress";
    List.iter
      (fun f ->
        let fstr k =
          Option.value ~default:"?" (Option.bind (J.member k f) J.to_str)
        in
        let fint k =
          Option.value ~default:0 (Option.bind (J.member k f) J.to_int)
        in
        let fflt k =
          Option.value ~default:0.0 (Option.bind (J.member k f) J.to_float)
        in
        let beacon =
          match J.member "beacon" f with
          | None -> ""
          | Some b ->
            let bstr k =
              Option.value ~default:"?" (Option.bind (J.member k b) J.to_str)
            in
            let bint k =
              Option.value ~default:0 (Option.bind (J.member k b) J.to_int)
            in
            Printf.sprintf "%s step %d, work %d" (bstr "engine") (bint "step")
              (bint "work")
        in
        Printf.printf "%-5d %-34s %-14s %3d %8.1f  %s\n" (fint "lane")
          (fstr "obligation") (fstr "engine") (fint "attempt")
          (fflt "elapsed_s") beacon)
      flying

let top_cmd =
  let run socket interval once raw_json =
    let fetch () =
      match read_status_socket socket with
      | s -> Some s
      | exception Unix.Unix_error _ -> None
    in
    let parse s =
      match Obs.Json.parse s with
      | Ok j -> j
      | Error e ->
        Printf.eprintf "dicheck top: bad status snapshot: %s\n" e;
        exit 3
    in
    if raw_json || once then begin
      match fetch () with
      | None ->
        Printf.eprintf "dicheck top: cannot connect to %s\n" socket;
        exit 3
      | Some s ->
        if raw_json then print_string s else render_status (parse s);
        exit 0
    end
    else begin
      (* refresh until the socket goes away — which is how a campaign ends *)
      let seen = ref false in
      let rec loop () =
        match fetch () with
        | Some s ->
          seen := true;
          (* ANSI home+clear: a refreshing table, not a scrolling log *)
          print_string "\027[H\027[2J";
          render_status (parse s);
          flush stdout;
          Unix.sleepf interval;
          loop ()
        | None ->
          if !seen then begin
            print_string "status socket closed — campaign finished\n";
            exit 0
          end
          else begin
            Printf.eprintf "dicheck top: cannot connect to %s\n" socket;
            exit 3
          end
      in
      loop ()
    end
  in
  let socket =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SOCKET"
             ~doc:"The Unix socket a running campaign was started with \
                   (--status-socket PATH).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Seconds between refreshes.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Print one snapshot and exit.")
  in
  let raw_json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print one raw dicheck-status-v1 JSON snapshot to stdout \
                   and exit (for scripts and CI).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Watch a running campaign over its --status-socket.")
    Term.(const run $ socket $ interval $ once $ raw_json)

(* ---- profile: hotspot report from a trace ---- *)

let profile_cmd =
  let run trace top_k json_out =
    match Obs.Profile.of_trace_file trace with
    | Error e ->
      Printf.eprintf "dicheck profile: %s\n" e;
      exit 3
    | Ok p ->
      Format.printf "%a" (Obs.Profile.pp ~k:top_k) p;
      (match json_out with
       | Some path ->
         write_file path
           (Obs.Json.to_string_pretty (Obs.Profile.to_json ~k:top_k p) ^ "\n");
         Printf.eprintf "profile report written to %s\n" path
       | None -> ());
      exit 0
  in
  let trace =
    Arg.(required & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"A Chrome trace written by $(b,dicheck campaign --trace).")
  in
  let top_k =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"K" ~doc:"Entries to show (by self time).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Also write the report as dicheck-profile-v1 JSON.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Aggregate a campaign trace into a top-K hotspot report (wall, \
             self time, GC allocation per phase).")
    Term.(const run $ trace $ top_k $ json_out)

let () =
  let doc = "data-integrity formal verification methodology (DATE 2004 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "dicheck" ~doc)
          [ campaign_cmd; explain_cmd; report_cmd; classify_cmd; area_cmd;
            fig7_cmd; check_cmd; infer_cmd; emit_cmd; fuzz_cmd; top_cmd;
            profile_cmd ]))
