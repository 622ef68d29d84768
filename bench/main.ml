(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus a Bechamel micro-benchmark suite (one Test.make
   per table/figure kernel).

     dune exec bench/main.exe             -- regenerate everything
     dune exec bench/main.exe -- table2   -- one artifact only
     dune exec bench/main.exe -- micro    -- Bechamel micro-benchmarks

   Artifacts: table1 table2 racing healing incremental table3 table4 timing
   fig7 fuzz micro *)

let header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

let chip = lazy (Chip.Generator.generate ())
let clean_chip = lazy (Chip.Generator.generate ~with_bugs:false ())

let table1 () =
  header "Table 1: chip implementation (synthetic reproduction)";
  Format.printf "%a" Core.Report.pp_table1 (Core.Report.table1 (Lazy.force chip))

(* one structural result cache for the whole bench run: the post-fix
   re-campaign of table2 reuses every verdict whose module the fixes did not
   touch instead of re-proving it *)
let campaign_cache = Mc.Cache.create ()

let campaign_jobs =
  match Sys.getenv_opt "DICHECK_JOBS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* every campaign the bench runs, in order, for BENCH_campaign.json *)
let campaign_runs : (string * Core.Campaign.t) list ref = ref []

(* the paired-run comparison blocks of BENCH_campaign.json ("racing",
   "healing", "incremental"), pushed by the artifacts that ran them *)
let comparisons : (string * Obs.Json.t) list ref = ref []
let compared name fields =
  comparisons := !comparisons @ [ (name, Obs.Json.Obj fields) ]

let run_campaign ?budget ?strategy ?self_heal ?(cache = campaign_cache) label
    chip =
  let last = ref 0.0 in
  (* heartbeats go to stderr (fixed 10s interval) so stdout stays a clean
     artifact stream *)
  let progress (s : Core.Status.snapshot) =
    let now = Unix.gettimeofday () in
    if now -. !last > 10.0 then begin
      last := now;
      Printf.eprintf "  ... %s: %d/%d properties (%.0fs)\n%!" label
        s.Core.Status.s_done s.Core.Status.s_total s.Core.Status.s_elapsed_s
    end
  in
  let c =
    Core.Campaign.run ?budget ?strategy ~progress ~jobs:campaign_jobs
      ?self_heal ~cache chip
  in
  Printf.printf
    "  %s: %.1fs on %d jobs, %d/%d verdicts from cache\n%!" label
    c.Core.Campaign.wall_time_s campaign_jobs c.Core.Campaign.cache_hits
    (List.length c.Core.Campaign.results);
  campaign_runs := !campaign_runs @ [ (label, c) ];
  c

(* do two runs reach the same verdict totals? *)
let same_totals (a : Core.Campaign.t) (b : Core.Campaign.t) =
  let a = a.Core.Campaign.grand_total and b = b.Core.Campaign.grand_total in
  a.Core.Campaign.proved = b.Core.Campaign.proved
  && a.Core.Campaign.failed = b.Core.Campaign.failed
  && a.Core.Campaign.resource_out = b.Core.Campaign.resource_out
  && a.Core.Campaign.errors = b.Core.Campaign.errors

(* machine-readable campaign benchmark record, written on every bench run
   (schema "dicheck-bench-v1"; empty "runs" when no campaign artifact ran) *)
let write_bench_json path =
  let module J = Obs.Json in
  let run_json (label, (c : Core.Campaign.t)) =
    let g = c.Core.Campaign.grand_total in
    J.Obj
      ([ ("label", J.String label);
         ("wall_s", J.Float c.Core.Campaign.wall_time_s);
         ("jobs", J.Int campaign_jobs);
         ("properties", J.Int g.Core.Campaign.total);
         ("proved", J.Int g.Core.Campaign.proved);
         ("failed", J.Int g.Core.Campaign.failed);
         ("resource_out", J.Int g.Core.Campaign.resource_out);
         ("errors", J.Int g.Core.Campaign.errors);
         ("cache_hits", J.Int c.Core.Campaign.cache_hits);
         ("retries", J.Int c.Core.Campaign.retries) ]
      @ Core.Campaign.perf_json c
      @ [ ("strategy_wins",
           J.Obj
             (List.map
                (fun (e, n) -> (e, J.Int n))
                (Core.Campaign.wins_by_engine c))) ]
      @
      match Core.Campaign.recovery_json c with
      | None -> []
      | Some r -> [ ("healing", J.Obj r) ])
  in
  let j =
    J.Obj
      ([ ("schema", J.String "dicheck-bench-v1");
         ("generated_at_unix", J.Float (Unix.gettimeofday ()));
         ("jobs", J.Int campaign_jobs);
         ("runs", J.List (List.map run_json !campaign_runs)) ]
      @ !comparisons)
  in
  let oc = open_out path in
  (try output_string oc (J.to_string_pretty j)
   with e ->
     close_out oc;
     raise e);
  close_out oc;
  Printf.eprintf "campaign benchmark data written to %s\n%!" path

let table2 () =
  header
    "Table 2: number of verified properties (full formal campaign, pre-fix \
     chip)";
  let c = run_campaign "pre-fix" (Lazy.force chip) in
  Format.printf "%a" Core.Campaign.pp_table2 c;
  Printf.printf
    "\n%d properties proved, %d failed (the seeded bugs), %d resource-outs\n"
    c.Core.Campaign.grand_total.Core.Campaign.proved
    c.Core.Campaign.grand_total.Core.Campaign.failed
    c.Core.Campaign.grand_total.Core.Campaign.resource_out;
  Printf.printf
    "campaign wall time: %.1fs (paper: ~20h on a 2004 workstation)\n"
    c.Core.Campaign.wall_time_s;
  List.iter
    (fun (r : Core.Campaign.prop_result) ->
      Printf.printf "  failed: %-12s %-28s (%s)\n" r.Core.Campaign.module_name
        r.Core.Campaign.prop_name
        (match r.Core.Campaign.bug with
         | Some b -> Chip.Bugs.name b
         | None -> "UNEXPECTED"))
    (Core.Campaign.failed_results c);
  header "Table 2 follow-up: post-fix chip (all 2047 properties must verify)";
  let c' = run_campaign "post-fix" (Lazy.force clean_chip) in
  Format.printf "%a" Core.Campaign.pp_table2 c';
  Printf.printf "failures on the fixed chip: %d (paper: all 2047 verified)\n"
    c'.Core.Campaign.grand_total.Core.Campaign.failed

(* Portfolio racing vs the sequential escalation ladder, under an equal
   constrained budget. The default budget never escalates (bdd-combined
   decides all 2047 obligations inside its node limit), so the effect the
   scheduler exists for — overlapping a ladder's serial stages — is
   measured where the ladder actually ladders: a 5000-node BDD cap makes
   the same 4 obligations escalate under both configurations (k-induction
   decides all 4 in the race), then Auto pays its rungs in sequence while
   the portfolio races them. Fresh caches keep the comparison cold. *)
let racing () =
  header "Portfolio racing vs the auto ladder (constrained budget)";
  let base =
    { Mc.Engine.default_budget with Mc.Engine.bdd_node_limit = Some 5_000 }
  in
  let auto =
    run_campaign ~budget:base
      ~cache:(Mc.Cache.create ())
      "auto-constrained" (Lazy.force chip)
  in
  let race =
    run_campaign ~budget:base
      ~strategy:(Mc.Engine.Portfolio (Mc.Engine.default_portfolio base))
      ~cache:(Mc.Cache.create ())
      "race-constrained" (Lazy.force chip)
  in
  let lw = auto.Core.Campaign.wall_time_s
  and rw = race.Core.Campaign.wall_time_s in
  compared "racing"
    Obs.Json.
      [ ("ladder_label", String "auto-constrained");
        ("racing_label", String "race-constrained");
        ("ladder_wall_s", Float lw); ("racing_wall_s", Float rw);
        ("speedup", Float (lw /. Float.max rw 1e-9)) ];
  Printf.printf "  verdict totals identical: %b\n" (same_totals auto race);
  Printf.printf "  strategy wins (racing):%s\n"
    (String.concat ""
       (List.map
          (fun (e, n) -> Printf.sprintf " %s=%d" e n)
          (Core.Campaign.wins_by_engine race)));
  Printf.printf "  ladder %.1fs, racing %.1fs -> speedup %.2fx\n" lw rw
    (lw /. Float.max rw 1e-9)

(* Self-healing under a starving budget: the same 2047-obligation campaign
   twice under bdd-forward, which builds its relation and images whatever
   the property, in a 2000-node arena — once plain (812 resource-outs) and
   once with the Figure 7 recovery pass, which partitions each starved
   cone, re-proves the pieces inside the very same budget and recombines
   them by assume-guarantee (648 recovered). Fresh caches on both sides. *)
let healing () =
  header "Self-healing recovery under a starving budget (--self-heal)";
  let starved =
    { Mc.Engine.default_budget with
      Mc.Engine.bdd_node_limit = Some 2_000;
      Mc.Engine.pobdd_node_limit = Some 2_000 }
  in
  let strategy =
    Mc.Engine.Portfolio
      (Mc.Engine.portfolio ~name:"bdd-forward"
         [ { Mc.Engine.m_strategy = Mc.Engine.Bdd_forward;
             m_budget = starved } ])
  in
  let plain =
    run_campaign ~budget:starved ~strategy
      ~cache:(Mc.Cache.create ())
      "starved" (Lazy.force chip)
  in
  let healed =
    run_campaign ~budget:starved ~strategy ~self_heal:4
      ~cache:(Mc.Cache.create ())
      "starved-healed" (Lazy.force chip)
  in
  let ro (c : Core.Campaign.t) =
    c.Core.Campaign.grand_total.Core.Campaign.resource_out
  in
  let recovered =
    match healed.Core.Campaign.healing with
    | Some h -> h.Core.Campaign.heal_recovered
    | None -> 0
  in
  compared "healing"
    Obs.Json.
      [ ("starved_label", String "starved");
        ("healed_label", String "starved-healed");
        ("resource_out_before", Int (ro plain));
        ("resource_out_after", Int (ro healed));
        ("recovered", Int recovered);
        ("recovery_rate",
         Float (float_of_int recovered /. float_of_int (max (ro plain) 1))) ];
  Printf.printf "  resource-outs: %d starved -> %d after healing\n" (ro plain)
    (ro healed);
  (match healed.Core.Campaign.healing with
   | Some h ->
     Printf.printf
       "  recovered %d of %d (%d proved, %d real failures; %d spurious cex, \
        %d CEGAR iterations, %d pieces)\n"
       h.Core.Campaign.heal_recovered h.Core.Campaign.heal_attempted
       h.Core.Campaign.heal_proved h.Core.Campaign.heal_failed
       h.Core.Campaign.heal_spurious h.Core.Campaign.heal_cegar_iters
       h.Core.Campaign.heal_pieces
   | None -> ());
  Printf.printf "  verdict flips vs starved run: %b (must be false)\n"
    (plain.Core.Campaign.grand_total.Core.Campaign.failed
    <> healed.Core.Campaign.grand_total.Core.Campaign.failed)

(* Incremental SAT vs rebuild-from-scratch, on the configuration where the
   solver actually carries state between queries: the full 2047-obligation
   campaign pinned to the BMC strategy, whose iterative deepening is one
   growing CNF per obligation. The scratch side is exactly what
   [--no-incremental] runs (each depth re-encoded and re-solved from
   nothing); the incremental side is the default. Fresh caches on both
   sides keep the comparison cold, and the verdict totals must be
   identical — the speedup lands in BENCH_campaign.json under
   "incremental", where CI gates it at >= 3x. *)
let incremental () =
  header "Incremental SAT vs scratch re-encoding (BMC strategy, full campaign)";
  (* depth 40 (double the default) so solving dominates the shared
     per-module preparation: iterative deepening to depth d costs the
     scratch side O(d^2) re-encoded frames and the incremental side O(d) *)
  let base = { Mc.Engine.default_budget with Mc.Engine.bmc_depth = 40 } in
  let scratch =
    run_campaign
      ~budget:{ base with Mc.Engine.incremental = false }
      ~strategy:Mc.Engine.Bmc
      ~cache:(Mc.Cache.create ())
      "bmc-scratch" (Lazy.force chip)
  in
  let inc =
    run_campaign ~budget:base ~strategy:Mc.Engine.Bmc
      ~cache:(Mc.Cache.create ())
      "bmc-incremental" (Lazy.force chip)
  in
  let rate (c : Core.Campaign.t) =
    float_of_int c.Core.Campaign.grand_total.Core.Campaign.total
    /. Float.max c.Core.Campaign.wall_time_s 1e-9
  in
  let sw = scratch.Core.Campaign.wall_time_s
  and iw = inc.Core.Campaign.wall_time_s in
  compared "incremental"
    Obs.Json.
      [ ("scratch_label", String "bmc-scratch");
        ("incremental_label", String "bmc-incremental");
        ("scratch_wall_s", Float sw); ("incremental_wall_s", Float iw);
        ("scratch_obligations_per_s", Float (rate scratch));
        ("incremental_obligations_per_s", Float (rate inc));
        ("speedup", Float (sw /. Float.max iw 1e-9));
        ("verdicts_identical", Bool (same_totals scratch inc)) ];
  Printf.printf "  verdict totals identical: %b\n" (same_totals scratch inc);
  Printf.printf
    "  scratch %.1fs (%.1f obligations/s), incremental %.1fs (%.1f \
     obligations/s) -> speedup %.2fx\n"
    sw (rate scratch) iw (rate inc) (sw /. Float.max iw 1e-9);
  Printf.printf "  incremental reuse: %d warm solves\n"
    (List.fold_left
       (fun a (r : Core.Campaign.prop_result) ->
         a
         + r.Core.Campaign.outcome.Mc.Engine.perf
             .Mc.Engine.incremental_reuse)
       0 inc.Core.Campaign.results)

let table3 () =
  header "Table 3: classification of logic bugs";
  let results = Core.Classify.run (Lazy.force chip) in
  Format.printf "%a" Core.Classify.pp_table3 results;
  Printf.printf "\nformal side:\n";
  List.iter
    (fun (r : Core.Classify.result) ->
      Printf.printf
        "  %s in %-12s exposed by %-22s in %.3fs, %s-cycle counterexample\n"
        (Chip.Bugs.name r.Core.Classify.bug)
        r.Core.Classify.module_name
        (Option.value ~default:"-" r.Core.Classify.prop_name)
        r.Core.Classify.formal_time_s
        (match r.Core.Classify.trace_len with
         | Some n -> string_of_int n
         | None -> "?"))
    results;
  let matches =
    List.for_all
      (fun (r : Core.Classify.result) ->
        r.Core.Classify.observed_cls = Some r.Core.Classify.expected_cls
        && r.Core.Classify.sim_easy = r.Core.Classify.expected_easy)
      results
  in
  Printf.printf "\nshape matches the paper's Table 3: %b\n" matches

let table4 () =
  header "Table 4: area increase caused by the error injection feature";
  Format.printf "%a" Core.Report.pp_table4 (Core.Report.table4 (Lazy.force chip));
  Printf.printf "(paper: A 1.4%%, B 0.4%%, D 0.2%%; C and E not published)\n"

let timing () =
  header "Timing impact of the injection selector (paper: ~200ps, ~4-5%)";
  Format.printf "%a" Core.Report.pp_timing
    (Core.Report.timing_impact (Lazy.force chip))

let fig7 () =
  header "Figure 7: partitioning a property for divide and conquer";
  Format.printf "%a" Core.Report.pp_fig7
    (Core.Report.fig7 ~payload_width:16 ~node_limit:100_000 ())

(* ---- differential fuzz throughput (BENCH_fuzz.json) ---- *)

let fuzz () =
  header "Differential fuzz throughput (dicheck fuzz)";
  let config =
    { Qa.Fuzz.default_config with Qa.Fuzz.seed = 42; count = 15 }
  in
  let s = Qa.Fuzz.run config in
  Printf.printf
    "%d designs, %d obligations, %d engine runs in %.1fs\n\
     %.1f designs/s, %.1f obligations/s\n\
     discrepancies: %d; mutation kill: %d/%d\n"
    s.Qa.Fuzz.cases_run s.Qa.Fuzz.obligations s.Qa.Fuzz.engine_runs
    s.Qa.Fuzz.elapsed_s
    (float_of_int s.Qa.Fuzz.cases_run /. max s.Qa.Fuzz.elapsed_s 1e-9)
    (float_of_int s.Qa.Fuzz.obligations /. max s.Qa.Fuzz.elapsed_s 1e-9)
    (List.length s.Qa.Fuzz.discrepancies)
    (List.fold_left (fun a (_, d, _) -> a + d) 0 s.Qa.Fuzz.kill_table)
    (List.fold_left (fun a (_, _, t) -> a + t) 0 s.Qa.Fuzz.kill_table);
  let module J = Obs.Json in
  let j =
    J.Obj
      [ ("schema", J.String "dicheck-fuzz-bench-v1");
        ("generated_at_unix", J.Float (Unix.gettimeofday ()));
        ("summary", Qa.Fuzz.summary_json s) ]
  in
  let oc = open_out "BENCH_fuzz.json" in
  (try output_string oc (J.to_string_pretty j)
   with e ->
     close_out oc;
     raise e);
  close_out oc;
  Printf.eprintf "fuzz benchmark data written to BENCH_fuzz.json\n%!"

(* ---- Bechamel micro-benchmarks: one kernel per table/figure ---- *)

let micro () =
  let open Bechamel in
  let chip = Lazy.force chip in
  let _, alu = Chip.Generator.find_unit chip Chip.Bugs.B4 in
  let alu_mdl = alu.Chip.Generator.info.Verifiable.Transform.mdl in
  let soundness = Psl.Parser.fl_of_string "never HE[0]" in
  let assumes =
    [ Psl.Parser.fl_of_string "always (^A)";
      Psl.Parser.fl_of_string "always (^B)";
      Psl.Parser.fl_of_string "always (~I_ERR_INJ_C)" ]
  in
  let cat_a =
    List.find
      (fun (c : Chip.Generator.category) -> c.Chip.Generator.cat_name = "A")
      chip.Chip.Generator.categories
  in
  let merge_leaf = Chip.Archetype.merge ~name:"bench_merge" ~payload_width:8 () in
  let merge_info = Verifiable.Transform.apply merge_leaf.Chip.Archetype.mdl in
  let merge_spec =
    { Verifiable.Propgen.he = merge_leaf.Chip.Archetype.he;
      he_map = merge_leaf.Chip.Archetype.he_map;
      parity_inputs = merge_leaf.Chip.Archetype.parity_inputs;
      parity_outputs = merge_leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  let merge_plan =
    Verifiable.Partition.partition merge_info merge_spec ~output:"OUT"
      ~cuts:[ "chk0"; "chk1"; "chk2" ]
  in
  let sub_vunit = snd (List.hd merge_plan.Verifiable.Partition.sub_vunits) in
  let classify_sim () =
    let nl =
      Rtl.Elaborate.run
        (Rtl.Design.of_modules [ alu_mdl ])
        ~top:alu_mdl.Rtl.Mdl.name
    in
    let sim = Sim.Simulator.create nl in
    let profile = Sim.Stimulus.legal_profile ~parity_inputs:[ "A"; "B" ] nl in
    ignore
      (Sim.Testbench.run_random sim profile ~cycles:1_000 ~seed:7
         ~watch:[ "HE" ])
  in
  let tests =
    [ Test.make ~name:"table1/chip-generation-and-gate-count"
        (Staged.stage (fun () ->
             let t = Chip.Generator.generate () in
             ignore
               (Synth.Area.gates_estimate t.Chip.Generator.design
                  ~root:t.Chip.Generator.chip_top)));
      Test.make ~name:"table2/one-property-model-check"
        (Staged.stage (fun () ->
             ignore
               (Mc.Engine.check_property alu_mdl ~assert_:soundness ~assumes)));
      Test.make ~name:"table3/random-simulation-1k-cycles"
        (Staged.stage classify_sim);
      Test.make ~name:"table4/category-A-area-delta"
        (Staged.stage (fun () ->
             ignore
               (Synth.Area.hierarchy_area chip.Chip.Generator.design
                  ~root:cat_a.Chip.Generator.top)));
      Test.make ~name:"timing/alu-static-timing"
        (Staged.stage (fun () ->
             let nl =
               Rtl.Elaborate.run
                 (Rtl.Design.of_modules [ alu_mdl ])
                 ~top:alu_mdl.Rtl.Mdl.name
             in
             ignore (Synth.Timing.analyze nl)));
      Test.make ~name:"fig7/one-partitioned-sub-property"
        (Staged.stage (fun () ->
             ignore
               (Mc.Engine.check_vunit ~strategy:Mc.Engine.Bdd_forward
                  merge_info.Verifiable.Transform.mdl sub_vunit))) ]
  in
  header "Bechamel micro-benchmarks (monotonic clock, OLS ns/run)";
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-44s %14.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-44s (no estimate)\n%!" name)
        results)
    tests

let artifacts =
  [ ("table1", table1); ("table2", table2); ("racing", racing);
    ("healing", healing); ("incremental", incremental); ("table3", table3);
    ("table4", table4); ("timing", timing); ("fig7", fig7); ("fuzz", fuzz);
    ("micro", micro) ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  (match args with
   | [] -> List.iter (fun (_, f) -> f ()) artifacts
   | names ->
     List.iter
       (fun name ->
         match List.assoc_opt name artifacts with
         | Some f -> f ()
         | None ->
           Printf.eprintf "unknown artifact %s; available: %s\n" name
             (String.concat " " (List.map fst artifacts));
           exit 1)
       names);
  write_bench_json "BENCH_campaign.json"
