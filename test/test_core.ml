(* End-to-end methodology: the design flow, a scoped-down verification
   campaign, bug classification, and the report generators. *)

module G = Chip.Generator
module PG = Verifiable.Propgen

let chip = lazy (G.generate ())

let test_flow_release () =
  let leaf = Chip.Archetype.counter ~name:"flow_cnt" () in
  let spec =
    { PG.he = leaf.Chip.Archetype.he; he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs;
      extra = leaf.Chip.Archetype.extra_props }
  in
  match Core.Flow.release_verifiable_rtl leaf.Chip.Archetype.mdl ~spec with
  | Error issues ->
    Alcotest.failf "release rejected: %d issues" (List.length issues)
  | Ok release ->
    Alcotest.(check int) "three stereotype vunits" 3
      (List.length release.Core.Flow.vunits);
    Alcotest.(check bool) "PSL text released" true
      (String.length release.Core.Flow.psl_text > 100);
    let feedback = Core.Flow.verify_release release in
    Alcotest.(check int) "all properties checked" 5 (List.length feedback);
    Alcotest.(check int) "no failures on clean module" 0
      (List.length (Core.Flow.failures feedback))

let test_flow_rejects_dirty_rtl () =
  (* an undriven output must be fixed before release *)
  let m = Rtl.Mdl.create "dirty" in
  let m = Rtl.Mdl.add_output m "O" 1 in
  let m =
    Rtl.Mdl.add_reg ~cls:Rtl.Mdl.Counter ~parity_protected:true m "c" 2
      (Rtl.Expr.var "c")
  in
  let spec =
    { PG.he = "O"; he_map = []; parity_inputs = []; parity_outputs = [];
      extra = [] }
  in
  match Core.Flow.release_verifiable_rtl m ~spec with
  | Error issues -> Alcotest.(check bool) "issues reported" true (issues <> [])
  | Ok _ -> Alcotest.fail "dirty RTL accepted"

let test_flow_feedback_on_bug () =
  let leaf = Chip.Archetype.counter ~name:"flow_bug" ~bug:true () in
  let spec =
    { PG.he = leaf.Chip.Archetype.he; he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  match Core.Flow.release_verifiable_rtl leaf.Chip.Archetype.mdl ~spec with
  | Error _ -> Alcotest.fail "release rejected"
  | Ok release ->
    let failures = Core.Flow.failures (Core.Flow.verify_release release) in
    Alcotest.(check bool) "bug produces feedback" true (failures <> []);
    List.iter
      (fun (f : Core.Flow.feedback) ->
        Alcotest.(check bool) "feedback formats" true
          (String.length (Format.asprintf "%a" Core.Flow.pp_feedback f) > 0))
      failures

(* the three bug modules of category A only: exercises the full Campaign
   machinery without the cost of all 2047 properties *)
let mini_chip () =
  let t = Lazy.force chip in
  let cat_a =
    List.find (fun (c : G.category) -> c.G.cat_name = "A") t.G.categories
  in
  let specials =
    List.filter (fun (u : G.unit_) -> u.G.leaf.Chip.Archetype.bug <> None)
      cat_a.G.units
  in
  Alcotest.(check int) "three seeded units in A" 3 (List.length specials);
  { t with
    G.categories =
      [ { cat_a with G.units = specials;
          G.expected = { cat_a.G.expected with G.sub = 3 } } ] }

let test_mini_campaign () =
  let mini = mini_chip () in
  let result = Core.Campaign.run mini in
  Alcotest.(check int) "one row" 1 (List.length result.Core.Campaign.rows);
  (match result.Core.Campaign.rows with
   | [ row ] ->
     Alcotest.(check int) "three defective modules" 3 row.Core.Campaign.bugs_found;
     Alcotest.(check bool) "some properties proved" true
       (row.Core.Campaign.proved > 0);
     Alcotest.(check int) "no resource-outs" 0 row.Core.Campaign.resource_out;
     Alcotest.(check int) "totals add up" row.Core.Campaign.total
       (row.Core.Campaign.p0 + row.Core.Campaign.p1 + row.Core.Campaign.p2
        + row.Core.Campaign.p3)
   | _ -> Alcotest.fail "expected one row");
  (* every failed property sits in a module with a seeded bug *)
  List.iter
    (fun (r : Core.Campaign.prop_result) ->
      Alcotest.(check bool) "failure has seeded bug" true (r.Core.Campaign.bug <> None))
    (Core.Campaign.failed_results result);
  let rendered = Format.asprintf "%a" Core.Campaign.pp_table2 result in
  Alcotest.(check bool) "table renders" true (String.length rendered > 50);
  (* CSV export: header plus one row per property *)
  let csv = Core.Campaign.to_csv result in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "csv rows" (List.length result.Core.Campaign.results + 1)
    (List.length lines);
  (match lines with
   | header :: _ ->
     Alcotest.(check bool) "csv header" true
       (String.length header > 0 && String.sub header 0 8 = "category")
   | [] -> Alcotest.fail "empty csv")

(* everything a verdict row asserts, minus wall-clock time and cache-hit
   placement (both legitimately schedule-dependent) *)
let result_key (r : Core.Campaign.prop_result) =
  let verdict =
    match r.Core.Campaign.outcome.Mc.Engine.verdict with
    | Mc.Engine.Proved -> "proved"
    | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
    | Mc.Engine.Failed _ -> "failed"
    | Mc.Engine.Resource_out m -> "resource:" ^ m
    | Mc.Engine.Error m -> "error:" ^ m
  in
  Printf.sprintf "%s/%s/%s/%s/%s/%s/%s" r.Core.Campaign.category
    r.Core.Campaign.module_name r.Core.Campaign.vunit_name
    r.Core.Campaign.prop_name
    (Verifiable.Propgen.class_name r.Core.Campaign.cls)
    verdict
    (match r.Core.Campaign.bug with
     | Some b -> Chip.Bugs.name b
     | None -> "-")

let row_key (r : Core.Campaign.row) =
  (* every row field except the timing sum *)
  Printf.sprintf "%s/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d" r.Core.Campaign.cat
    r.Core.Campaign.subs r.Core.Campaign.bugs_found r.Core.Campaign.p0
    r.Core.Campaign.p1 r.Core.Campaign.p2 r.Core.Campaign.p3
    r.Core.Campaign.total r.Core.Campaign.proved r.Core.Campaign.failed
    r.Core.Campaign.resource_out

let test_parallel_matches_sequential () =
  let mini = mini_chip () in
  let seq = Core.Campaign.run mini in
  let par = Core.Campaign.run ~jobs:4 mini in
  Alcotest.(check (list string)) "same verdicts in the same order"
    (List.map result_key seq.Core.Campaign.results)
    (List.map result_key par.Core.Campaign.results);
  Alcotest.(check (list string)) "same rows"
    (List.map row_key seq.Core.Campaign.rows)
    (List.map row_key par.Core.Campaign.rows);
  Alcotest.(check string) "same grand total"
    (row_key seq.Core.Campaign.grand_total)
    (row_key par.Core.Campaign.grand_total)

(* ---- shared preparation: one cell per module structure ---- *)

(* each module's work items, modules in first-appearance order *)
let by_module works =
  let tbl = Hashtbl.create 128 and order = ref [] in
  List.iter
    (fun (w : Core.Campaign.work) ->
      let name = w.Core.Campaign.w_mdl.Rtl.Mdl.name in
      match Hashtbl.find_opt tbl name with
      | Some ws -> Hashtbl.replace tbl name (w :: ws)
      | None ->
        Hashtbl.add tbl name [ w ];
        order := name :: !order)
    works;
  List.rev_map (fun name -> List.rev (Hashtbl.find tbl name)) !order

let module_name ws = (List.hd ws).Core.Campaign.w_mdl.Rtl.Mdl.name

(* a module's structure: the module without its name, plus its
   properties' ordered formulas *)
let structure ws =
  ( { (List.hd ws).Core.Campaign.w_mdl with Rtl.Mdl.name = "" },
    List.map
      (fun (w : Core.Campaign.work) ->
        (w.Core.Campaign.w_assert, w.Core.Campaign.w_assumes))
      ws )

(* [(module, key)] per work item, in work order (a module's items are
   contiguous): the fingerprint of the obligation that preparing the item's
   own module on its own gives *)
let own_keys chip =
  List.concat_map
    (fun ws ->
      let props =
        List.map
          (fun (w : Core.Campaign.work) ->
            ( w.Core.Campaign.w_prop_name, w.Core.Campaign.w_assert,
              w.Core.Campaign.w_assumes ))
          ws
      in
      List.map
        (fun (_, prep) ->
          ( module_name ws,
            Mc.Obligation.fingerprint (Mc.Obligation.of_prepared prep ~meta:())
          ))
        (Mc.Engine.prepare_module (List.hd ws).Core.Campaign.w_mdl ~props))
    (by_module (Core.Campaign.work_items chip))

(* A sequential campaign on a cache file: its results, checked against
   the work-order own keys [expected]. The store holds the first occurrence
   of every key, in order, and a row is a cache hit exactly when its key
   occurred before it. *)
let stored_run chip expected =
  let path = Filename.temp_file "dicheck-cells" ".cache" in
  let cache = Mc.Cache.open_file path in
  let result = Core.Campaign.run ~cache chip in
  Mc.Cache.close cache;
  let stored =
    match
      String.split_on_char '\n'
        (In_channel.with_open_bin path In_channel.input_all)
    with
    | _header :: records ->
      List.filter_map
        (fun line ->
          match Obs.Json.parse line with
          | Ok j -> Option.bind (Obs.Json.member "key" j) Obs.Json.to_str
          | Error _ -> None)
        records
    | [] -> []
  in
  Sys.remove path;
  let seen = Hashtbl.create 64 in
  let hits =
    List.map
      (fun key ->
        let hit = Hashtbl.mem seen key in
        Hashtbl.replace seen key ();
        hit)
      expected
  in
  Alcotest.(check (list string)) "the store holds each own key, in order"
    (List.filter_map
       (fun (key, hit) -> if hit then None else Some key)
       (List.combine expected hits))
    stored;
  Alcotest.(check (list bool)) "a row hits exactly when its key came before"
    hits
    (List.map
       (fun (r : Core.Campaign.prop_result) -> r.Core.Campaign.cache_hit)
       result.Core.Campaign.results);
  result

(* Every row's lookup key, hits included: over a cache that answers each
   expected key with a marker outcome naming that key, each row must read
   back the marker of its own key. The first run prepares every cell and
   leaves its cell record in the cache; the second takes every key from
   those records and must read the same markers without elaborating. *)
let check_row_keys chip expected =
  let marked = Mc.Cache.create () in
  List.iter
    (fun key ->
      Mc.Cache.add marked ~key
        { Mc.Engine.verdict = Mc.Engine.Proved; engine_used = key;
          time_s = 0.0; iterations = 0; work_nodes = 0;
          perf = Mc.Engine.empty_perf })
    expected;
  let markers (t : Core.Campaign.t) =
    List.map
      (fun (r : Core.Campaign.prop_result) ->
        r.Core.Campaign.outcome.Mc.Engine.engine_used)
      t.Core.Campaign.results
  in
  Alcotest.(check (list string))
    "each row's key is its own module's fingerprint" expected
    (markers (Core.Campaign.run ~cache:marked chip));
  Obs.Telemetry.start ();
  Obs.Telemetry.recorder_start ~capacity:8192 ();
  let answered = Core.Campaign.run ~cache:marked chip in
  let events = Obs.Telemetry.events () in
  Obs.Telemetry.recorder_stop ();
  let report = Obs.Telemetry.stop () in
  Alcotest.(check (list string))
    "each row's key from a cell record is its own module's fingerprint"
    expected (markers answered);
  let hits =
    List.filter
      (fun (e : Obs.Telemetry.event) -> e.Obs.Telemetry.kind = "cell.hit")
      events
  in
  Alcotest.(check bool) "every cell from its record" true
    (hits <> [] && Obs.Telemetry.counter report "cell.miss" = 0);
  Alcotest.(check int) "one cell.hit event per cell"
    (Obs.Telemetry.counter report "cell.hit") (List.length hits);
  List.iter
    (fun (e : Obs.Telemetry.event) ->
      let d = e.Obs.Telemetry.detail in
      Alcotest.(check bool) "the event carries the digest and the module" true
        (String.length d > 33 && d.[32] = ' '))
    hits;
  Alcotest.(check int) "no elaboration behind the cell records" 0
    (List.length
       (List.filter
          (fun (s : Obs.Telemetry.span) ->
            s.Obs.Telemetry.name = "prepare.elaborate")
          report.Obs.Telemetry.spans))

(* every obligation, cache hits included, is keyed exactly as its own
   module's preparation keys it, and the chip's 95 modules are prepared
   once per distinct structure *)
let test_shared_cells () =
  let t = Lazy.force chip in
  let expected = List.map snd (own_keys t) in
  Obs.Telemetry.start ();
  let result = stored_run t expected in
  let report = Obs.Telemetry.stop () in
  Alcotest.(check int) "every obligation keyed"
    (List.length result.Core.Campaign.results) (List.length expected);
  check_row_keys t expected;
  let structures =
    List.length
      (List.sort_uniq compare
         (List.map structure (by_module (Core.Campaign.work_items t))))
  in
  Alcotest.(check int) "distinct module structures" 22 structures;
  Alcotest.(check int) "one elaboration per structure" structures
    (List.length
       (List.filter
          (fun (s : Obs.Telemetry.span) ->
            s.Obs.Telemetry.name = "prepare.elaborate")
          report.Obs.Telemetry.spans))

let twin_chip () = Twins.chip (Lazy.force chip)

(* twins that differ in one register flag must not share a cell *)
let test_twin_cells () =
  let named n modules = List.find (fun ws -> module_name ws = n) modules in
  let chip_modules = by_module (Core.Campaign.work_items (Lazy.force chip)) in
  Alcotest.(check bool) "E_leaf00 and E_leaf01 are twins" true
    (structure (named "E_leaf00" chip_modules)
     = structure (named "E_leaf01" chip_modules));
  let twins = twin_chip () in
  let own = own_keys twins in
  let keys_of n =
    List.filter_map (fun (m, k) -> if m = n then Some k else None) own
  in
  Alcotest.(check bool) "the flipped flag lies in a cone" true
    (keys_of "E_leaf00" <> keys_of "E_leaf01");
  let seq = stored_run twins (List.map snd own) in
  check_row_keys twins (List.map snd own);
  let par = Core.Campaign.run ~jobs:4 twins in
  Alcotest.(check (list string)) "pool matches sequential"
    (List.map result_key seq.Core.Campaign.results)
    (List.map result_key par.Core.Campaign.results)

(* the chip's preparation cells in the campaign's order — one per module
   structure, at its first module — with their properties *)
let cells chip =
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun ws ->
      let s = structure ws in
      if Hashtbl.mem seen s then None
      else begin
        Hashtbl.add seen s ();
        Some
          ( (List.hd ws).Core.Campaign.w_mdl,
            List.map
              (fun (w : Core.Campaign.work) ->
                ( w.Core.Campaign.w_prop_name, w.Core.Campaign.w_assert,
                  w.Core.Campaign.w_assumes ))
              ws )
      end)
    (by_module (Core.Campaign.work_items chip))

let fresh_keys (mdl, props) =
  List.map
    (fun (_, prep) ->
      Mc.Obligation.fingerprint (Mc.Obligation.of_prepared prep ~meta:()))
    (Mc.Engine.prepare_module mdl ~props)

(* The preparation behind every key is pinned twice. The MD5 of the
   pre-fix chip's 603 cell keys, in cell order, is pinned beside
   [prep_version]. The committed current-format store holds two cell
   records written at that version, and while their digests name cells of
   the chip, their keys must be what preparing those cells computes now. A
   change that moves a key fails both checks; re-pinning the MD5 without
   bumping [prep_version] still fails the second. A bump changes every
   digest, so the fixture's records then name no cell and must be written
   anew (see test_runtime's [pinned_cells]). *)
let test_prep_version_pin () =
  let cells = cells (Lazy.force chip) in
  let keys = List.map fresh_keys cells in
  Alcotest.(check int) "603 keys in 22 cells" 603
    (List.length (List.concat keys));
  Alcotest.(check (pair int string)) "prep_version and its keys' MD5"
    (1, "347922a28a176caf2b48db2c8d3fe1de")
    ( Mc.Engine.prep_version,
      Digest.to_hex (Digest.string (String.concat "" (List.concat keys))) );
  let store =
    match
      Mc.Cache.load (Filename.concat "fixtures" (Mc.Cache.schema ^ ".cache"))
    with
    | Some c -> c
    | None -> Alcotest.fail "no current-format fixture"
  in
  let named =
    List.filter_map
      (fun ((mdl, props), keys) ->
        Option.map
          (fun recorded -> (mdl.Rtl.Mdl.name, recorded, keys))
          (Mc.Cache.find_cell store
             ~digest:(Mc.Obligation.cell_digest mdl ~props)))
      (List.combine cells keys)
  in
  Alcotest.(check int) "the fixture's cell records name two cells" 2
    (Mc.Cache.cells store);
  Alcotest.(check (list string)) "...of the chip at this prep_version"
    [ "a_csr"; "C_leaf06" ]
    (List.map (fun (m, _, _) -> m) named);
  List.iter
    (fun (m, recorded, keys) ->
      Alcotest.(check (list string))
        (m ^ ": a record of this version names the fresh keys") keys recorded)
    named

(* the digest reads the module but its name, the properties, the salt and
   the preparation version *)
let test_cell_digest_covers () =
  let t = Lazy.force chip in
  let mdl, props = List.hd (cells t) in
  let digest ?budget ?strategy ?(mdl = mdl) props =
    Mc.Obligation.cell_digest ?budget ?strategy mdl ~props
  in
  let base = digest props in
  let differs name d =
    Alcotest.(check bool) (name ^ " moves the digest") true (d <> base)
  in
  Alcotest.(check string) "the module's name is left out" base
    (digest ~mdl:{ mdl with Rtl.Mdl.name = "renamed" } props);
  Alcotest.(check string) "so are the properties' names" base
    (digest (List.map (fun (_, a, s) -> ("renamed", a, s)) props));
  differs "dropping a property" (digest (List.tl props));
  differs "swapping two properties"
    (digest (match props with p :: q :: r -> q :: p :: r | r -> r));
  differs "another assert"
    (digest
       (List.mapi
          (fun i (n, a, s) ->
            (n, (if i = 0 then Psl.Ast.Not a else a), s))
          props));
  differs "one more assumption"
    (digest
       (List.map (fun (n, a, s) -> (n, a, Psl.Ast.Bool Rtl.Expr.tru :: s))
          props));
  differs "another strategy" (digest ~strategy:Mc.Engine.Bmc props);
  differs "another budget"
    (digest
       ~budget:{ Mc.Engine.default_budget with Mc.Engine.bmc_depth = 21 }
       props);
  let first = (List.hd mdl.Rtl.Mdl.regs).Rtl.Mdl.reg_name in
  differs "a register's parity flag"
    (digest
       ~mdl:
         (Rtl.Mdl.map_regs
            (fun r ->
              if r.Rtl.Mdl.reg_name = first then
                { r with
                  Rtl.Mdl.parity_protected = not r.Rtl.Mdl.parity_protected }
              else r)
            mdl)
       props)

(* a store's cell records never answer another strategy: rerun under BMC
   on a store the default strategy filled, the rows are BMC's own *)
let test_cells_keep_the_salt () =
  let mini = mini_chip () in
  let cache = Mc.Cache.create () in
  ignore (Core.Campaign.run ~cache mini);
  let detail (r : Core.Campaign.prop_result) =
    Printf.sprintf "%s %s" (result_key r)
      r.Core.Campaign.outcome.Mc.Engine.engine_used
  in
  Alcotest.(check (list string)) "BMC on the filled store = BMC alone"
    (List.map detail
       (Core.Campaign.run ~strategy:Mc.Engine.Bmc mini).Core.Campaign.results)
    (List.map detail
       (Core.Campaign.run ~strategy:Mc.Engine.Bmc ~cache mini)
         .Core.Campaign.results)

(* A store whose cell records name keys preparation no longer computes,
   as after a preparation change without a [prep_version] bump: each
   record's keys miss, so its cell is prepared, found stale, counted and
   rewritten, and every row is answered under its fresh key. *)
let test_stale_cell_record () =
  let mini = mini_chip () in
  let cache = Mc.Cache.create () in
  let cells = cells mini in
  List.iter
    (fun (mdl, props) ->
      Mc.Cache.add_cell cache
        ~digest:(Mc.Obligation.cell_digest mdl ~props)
        (List.map (fun k -> "stale-" ^ k) (fresh_keys (mdl, props))))
    cells;
  Obs.Telemetry.start ();
  let healed = Core.Campaign.run ~cache mini in
  let report = Obs.Telemetry.stop () in
  Alcotest.(check int) "every cell found stale" (List.length cells)
    (Obs.Telemetry.counter report "cell.stale");
  List.iter
    (fun (mdl, props) ->
      Alcotest.(check (option (list string)))
        (mdl.Rtl.Mdl.name ^ ": record rewritten")
        (Some (fresh_keys (mdl, props)))
        (Mc.Cache.find_cell cache
           ~digest:(Mc.Obligation.cell_digest mdl ~props)))
    cells;
  Alcotest.(check (list string)) "verdicts as on a fresh store"
    (List.map result_key (Core.Campaign.run mini).Core.Campaign.results)
    (List.map result_key healed.Core.Campaign.results)

(* concurrent BMC runs build Bexpr nodes on several domains at once *)
let test_bmc_pool_matches_sequential () =
  let mini = mini_chip () in
  let seq = Core.Campaign.run ~strategy:Mc.Engine.Bmc mini in
  let par = Core.Campaign.run ~strategy:Mc.Engine.Bmc ~jobs:4 mini in
  let detail (r : Core.Campaign.prop_result) =
    let o = r.Core.Campaign.outcome in
    Printf.sprintf "%s %s %d %d" (result_key r) o.Mc.Engine.engine_used
      o.Mc.Engine.iterations o.Mc.Engine.perf.Mc.Engine.sat_conflicts
  in
  Alcotest.(check (list string)) "same verdicts, depths and conflicts"
    (List.map detail seq.Core.Campaign.results)
    (List.map detail par.Core.Campaign.results)

let test_campaign_warm_cache () =
  let mini = mini_chip () in
  let cache = Mc.Cache.create () in
  let cold = Core.Campaign.run ~cache mini in
  let fresh_after_cold = Mc.Cache.misses cache in
  Alcotest.(check bool) "cold run proves something fresh" true
    (fresh_after_cold > 0);
  let warm = Core.Campaign.run ~jobs:4 ~cache mini in
  Alcotest.(check int) "warm re-campaign runs zero fresh engine calls"
    fresh_after_cold (Mc.Cache.misses cache);
  Alcotest.(check int) "every warm verdict is a cache hit"
    (List.length warm.Core.Campaign.results) warm.Core.Campaign.cache_hits;
  Alcotest.(check bool) "warm results flag the hits" true
    (List.for_all
       (fun (r : Core.Campaign.prop_result) -> r.Core.Campaign.cache_hit)
       warm.Core.Campaign.results);
  Alcotest.(check (list string)) "warm verdicts identical to cold"
    (List.map result_key cold.Core.Campaign.results)
    (List.map result_key warm.Core.Campaign.results);
  (* CSV reports the per-property cache-hit column *)
  let csv = Core.Campaign.to_csv warm in
  (match String.split_on_char '\n' csv with
   | header :: _ ->
     Alcotest.(check bool) "csv has cache_hit column" true
       (List.mem "cache_hit" (String.split_on_char ',' header))
   | [] -> Alcotest.fail "empty csv")

let test_executor_map () =
  let input = Array.init 201 (fun i -> i) in
  let f i = (i * 37) mod 101 in
  let expected = Array.map (fun i -> Ok (f i)) input in
  let results = Alcotest.(array (result int reject)) in
  List.iter
    (fun jobs ->
      Alcotest.check results
        (Printf.sprintf "pool of %d preserves order" jobs)
        expected
        (Core.Executor.map_result (Core.Executor.pool ~jobs) f input))
    [ 1; 2; 3; 8 ];
  Alcotest.check results "empty input" [||]
    (Core.Executor.map_result (Core.Executor.pool ~jobs:4) f [||]);
  Alcotest.(check int) "of_jobs None is sequential" 1
    Core.Executor.(jobs (of_jobs None));
  Alcotest.(check int) "of_jobs clamps" 1 Core.Executor.(jobs (of_jobs (Some 0)));
  (* an exception raised in a worker domain comes back at its index *)
  match
    (Core.Executor.map_result (Core.Executor.pool ~jobs:3)
       (fun i -> if i = 150 then raise Exit else i)
       input).(150)
  with
  | Error Exit -> ()
  | _ -> Alcotest.fail "worker exception must come back as Error Exit"

(* race_map_result: every backend and job count must settle every group on
   the same attributed prefix — racing changes wall time, not answers *)
let test_executor_race_groups () =
  let n = 60 in
  let input = Array.init n (fun i -> i) in
  (* item i: Done for multiples of 7; otherwise 1..5 attempts where attempt
     k yields i*10+k and exactly attempt (i mod 3) is conclusive — which for
     some items lies beyond the attempt count, so no attempt concludes *)
  let open_ i =
    if i mod 7 = 0 then Core.Executor.Done [ -i ]
    else
      Core.Executor.Race
        { attempts = 1 + (i mod 5);
          run = (fun k ~cancel -> ignore (cancel ()); (i * 10) + k);
          conclusive = (fun v -> v mod 10 = i mod 3);
          combine = (fun vs -> vs) }
  in
  let expected =
    Array.init n (fun i ->
        if i mod 7 = 0 then [ -i ]
        else
          let attempts = 1 + (i mod 5) and winner = i mod 3 in
          let prefix = if winner < attempts then winner + 1 else attempts in
          List.init prefix (fun k -> (i * 10) + k))
  in
  let values label results =
    Array.map
      (function
        | Ok v -> v
        | Error e -> Alcotest.failf "%s: unexpected error: %s" label
                       (Printexc.to_string e))
      results
  in
  Alcotest.(check (array (list int))) "sequential backend" expected
    (values "seq" (Core.Executor.race_map_result Core.Executor.sequential
                     open_ input));
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "pool %d" jobs in
      Alcotest.(check (array (list int))) label expected
        (values label
           (Core.Executor.race_map_result (Core.Executor.pool ~jobs) open_
              input)))
    [ 2; 3; 4; 8 ];
  (* a raising attempt decides its group as Error on every backend *)
  let open_err i =
    Core.Executor.Race
      { attempts = 3;
        run = (fun k ~cancel ->
                ignore (cancel ());
                if i = 2 && k = 1 then raise Exit else k);
        conclusive = (fun v -> v = 2);
        combine = (fun vs -> vs) }
  in
  List.iter
    (fun exec ->
      let rs = Core.Executor.race_map_result exec open_err (Array.init 4 Fun.id) in
      Array.iteri
        (fun i r ->
          match (i, r) with
          | 2, Error Exit -> ()
          | 2, _ -> Alcotest.fail "crashing attempt must decide as Error Exit"
          | _, Ok [ 0; 1; 2 ] -> ()
          | _, _ -> Alcotest.fail "healthy group settled wrong")
        rs)
    [ Core.Executor.sequential; Core.Executor.pool ~jobs:4 ];
  Alcotest.(check int) "empty input" 0
    (Array.length
       (Core.Executor.race_map_result (Core.Executor.pool ~jobs:4) open_ [||]))

(* a conclusive attempt cancels its running sibling, and the sibling's
   cooperative return is observed within the 100ms latency bound *)
let test_executor_race_cancellation () =
  let loser_started = Atomic.make false in
  let loser_cancelled_at = Atomic.make 0.0 in
  let winner_done_at = Atomic.make 0.0 in
  let spin_until ?(timeout = 5.0) p =
    let t0 = Unix.gettimeofday () in
    while (not (p ())) && Unix.gettimeofday () -. t0 < timeout do
      Domain.cpu_relax ()
    done;
    p ()
  in
  let open_ () =
    Core.Executor.Race
      { attempts = 3;
        run =
          (fun k ~cancel ->
            match k with
            | 0 -> 0 (* the probe: completes without concluding *)
            | 1 ->
              (* the winner: holds until the loser is live, so cancellation
                 is actually exercised, then concludes *)
              ignore (spin_until (fun () -> Atomic.get loser_started));
              Atomic.set winner_done_at (Unix.gettimeofday ());
              1
            | _ ->
              (* the loser: polls the hook like an engine loop would *)
              Atomic.set loser_started true;
              if spin_until cancel then
                Atomic.set loser_cancelled_at (Unix.gettimeofday ());
              2);
        conclusive = (fun v -> v = 1);
        combine = (fun vs -> vs) }
  in
  match
    Core.Executor.race_map_result (Core.Executor.pool ~jobs:3) open_ [| () |]
  with
  | [| Ok prefix |] ->
    Alcotest.(check (list int)) "attribution stops at the winner" [ 0; 1 ]
      prefix;
    Alcotest.(check bool) "loser ran concurrently" true
      (Atomic.get loser_started);
    let cancelled = Atomic.get loser_cancelled_at in
    Alcotest.(check bool) "loser observed cancellation" true (cancelled > 0.0);
    let latency = cancelled -. Atomic.get winner_done_at in
    Alcotest.(check bool)
      (Printf.sprintf "cancellation latency %.1fms under 100ms"
         (latency *. 1e3))
      true (latency < 0.1)
  | _ -> Alcotest.fail "expected one settled group"

(* the racing scheduler must be invisible in the results: verdicts, rows,
   attribution and the summed perf of a portfolio campaign are identical
   between one job (the sequential ladder) and a racing pool *)
let test_racing_matches_sequential_portfolio () =
  let mini = mini_chip () in
  let base =
    { Mc.Engine.default_budget with Mc.Engine.bdd_node_limit = Some 5_000 }
  in
  let strategy = Mc.Engine.Portfolio (Mc.Engine.default_portfolio base) in
  let seq =
    Core.Campaign.run ~budget:base ~strategy ~cache:(Mc.Cache.create ()) mini
  in
  let race =
    Core.Campaign.run ~budget:base ~strategy ~jobs:4
      ~cache:(Mc.Cache.create ()) mini
  in
  Alcotest.(check (list string)) "same verdicts in the same order"
    (List.map result_key seq.Core.Campaign.results)
    (List.map result_key race.Core.Campaign.results);
  Alcotest.(check (list string)) "same rows"
    (List.map row_key seq.Core.Campaign.rows)
    (List.map row_key race.Core.Campaign.rows);
  (* attribution: each obligation credits the same member in both modes *)
  let engines (t : Core.Campaign.t) =
    List.map
      (fun (r : Core.Campaign.prop_result) ->
        r.Core.Campaign.outcome.Mc.Engine.engine_used)
      t.Core.Campaign.results
  in
  Alcotest.(check (list string)) "same winning engine per obligation"
    (engines seq) (engines race);
  Alcotest.(check (list (pair string int))) "same per-strategy win counts"
    (Core.Campaign.wins_by_engine seq) (Core.Campaign.wins_by_engine race);
  (* no row may ever be attributed to a cancelled loser *)
  List.iter
    (fun (r : Core.Campaign.prop_result) ->
      if Mc.Engine.resource_cause r.Core.Campaign.outcome = Some "cancelled"
      then Alcotest.failf "%s attributed to a cancelled run"
             r.Core.Campaign.prop_name)
    race.Core.Campaign.results;
  (* aggregate perf is schedule-independent in every integer field (wall
     times are the one legitimately schedule-dependent measure) *)
  let p_seq = Core.Campaign.aggregate_perf seq in
  let p_race = Core.Campaign.aggregate_perf race in
  let fields (p : Core.Campaign.perf_totals) =
    [ ("engine_attempts", p.Core.Campaign.engine_attempts);
      ("fix_iterations", p.Core.Campaign.fix_iterations);
      ("bdd_peak", p.Core.Campaign.bdd_peak);
      ("peak_set_size", p.Core.Campaign.peak_set_size);
      ("bdd_polls", p.Core.Campaign.bdd_polls);
      ("sat_decisions", p.Core.Campaign.sat_decisions);
      ("sat_conflicts", p.Core.Campaign.sat_conflicts);
      ("sat_propagations", p.Core.Campaign.sat_propagations);
      ("sat_restarts", p.Core.Campaign.sat_restarts);
      ("max_unroll_depth", p.Core.Campaign.max_unroll_depth);
      ("max_final_k", p.Core.Campaign.max_final_k);
      ("max_ic3_frames", p.Core.Campaign.max_ic3_frames) ]
  in
  Alcotest.(check (list (pair string int)))
    "aggregate perf identical under racing" (fields p_seq) (fields p_race)

(* a portfolio strategy races exactly when the pool has more than one job;
   [Auto] runs its members one at a time whatever the pool *)
let test_racing_follows_strategy () =
  let mini = mini_chip () in
  let portfolio =
    Mc.Engine.Portfolio (Mc.Engine.default_portfolio Mc.Engine.default_budget)
  in
  let race_groups strategy jobs =
    Obs.Telemetry.start ();
    ignore
      (Core.Campaign.run ~strategy ~jobs ~cache:(Mc.Cache.create ()) mini);
    Obs.Telemetry.counter (Obs.Telemetry.stop ()) "exec.race_groups"
  in
  Alcotest.(check bool) "a portfolio races on four jobs" true
    (race_groups portfolio 4 > 0);
  Alcotest.(check int) "a portfolio ladders on one job" 0
    (race_groups portfolio 1);
  Alcotest.(check int) "auto never races" 0 (race_groups Mc.Engine.Auto 4)

let test_trace_vcd_export () =
  (* a counterexample exports as a well-formed VCD *)
  let leaf = Chip.Archetype.counter ~name:"vcd_cnt" ~bug:true () in
  let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
  let spec =
    { PG.he = leaf.Chip.Archetype.he; he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  let vunit = PG.soundness_vunit info spec in
  let assert_ = Psl.Ast.property vunit "pNoError_0" in
  let assumes = List.map snd (Psl.Ast.assumes vunit) in
  match
    (Mc.Engine.check_property info.Verifiable.Transform.mdl ~assert_ ~assumes)
      .Mc.Engine.verdict
  with
  | Mc.Engine.Failed trace ->
    let vcd = Mc.Trace.to_vcd trace in
    let contains needle =
      let n = String.length needle and h = String.length vcd in
      let rec go i = i + n <= h && (String.sub vcd i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "has definitions" true (contains "$enddefinitions");
    Alcotest.(check bool) "has state var" true (contains "cnt_q");
    Alcotest.(check bool) "has timesteps" true (contains "#0")
  | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ | Mc.Engine.Resource_out _
  | Mc.Engine.Error _ ->
    Alcotest.fail "expected failure"

let test_classification_matches_paper () =
  let t = Lazy.force chip in
  let results = Core.Classify.run ~cycles:3_000 ~seeds:[ 11; 23; 37 ] t in
  Alcotest.(check int) "seven bugs classified" 7 (List.length results);
  List.iter
    (fun (r : Core.Classify.result) ->
      Alcotest.(check bool)
        (Chip.Bugs.name r.Core.Classify.bug ^ " found by formal")
        true r.Core.Classify.formal_found;
      Alcotest.(check bool)
        (Chip.Bugs.name r.Core.Classify.bug ^ " property class matches Table 3")
        true
        (r.Core.Classify.observed_cls = Some r.Core.Classify.expected_cls);
      Alcotest.(check bool)
        (Chip.Bugs.name r.Core.Classify.bug ^ " simulation difficulty matches")
        true
        (r.Core.Classify.sim_easy = r.Core.Classify.expected_easy))
    results

let test_report_table1 () =
  let t = Lazy.force chip in
  let rows = Core.Report.table1 t in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  Alcotest.(check bool) "logic size row present" true
    (List.mem_assoc "Logic size" rows)

let test_report_table4_and_timing () =
  let t = Lazy.force chip in
  let rows = Core.Report.table4 t in
  Alcotest.(check int) "five categories" 5 (List.length rows);
  List.iter
    (fun (r : Core.Report.area_row) ->
      Alcotest.(check bool)
        (r.Core.Report.cat ^ " increase positive")
        true
        (r.Core.Report.increase_pct > 0.0 && r.Core.Report.increase_pct < 5.0))
    rows;
  let timing = Core.Report.timing_impact t in
  Alcotest.(check bool) "meets timing at 250MHz" true
    timing.Core.Report.meets_timing;
  Alcotest.(check (float 0.001)) "selector is the paper's 200ps" 200.0
    timing.Core.Report.selector_delay_ps;
  Alcotest.(check bool) "selector around 4-5% of cycle" true
    (timing.Core.Report.selector_pct_of_path >= 3.0
     && timing.Core.Report.selector_pct_of_path <= 6.0)

let test_fig7_shape () =
  (* small instance so the test is quick: the monolithic property must
     exhaust the budget, all partitioned pieces must verify within it *)
  let rows = Core.Report.fig7 ~payload_width:12 ~node_limit:60_000 () in
  Alcotest.(check int) "five pieces" 5 (List.length rows);
  (match rows with
   | mono :: rest ->
     Alcotest.(check bool) "monolithic times out" true
       (String.length mono.Core.Report.verdict >= 8
        && String.sub mono.Core.Report.verdict 0 8 = "time-out");
     List.iter
       (fun (r : Core.Report.fig7_outcome) ->
         Alcotest.(check string)
           (r.Core.Report.piece ^ " verdict")
           "proved" r.Core.Report.verdict;
         Alcotest.(check bool)
           (r.Core.Report.piece ^ " smaller state")
           true
           (r.Core.Report.state_bits <= mono.Core.Report.state_bits))
       rest
   | [] -> Alcotest.fail "no rows")


(* ---- sequential equivalence checking ---- *)

let test_equiv_transform_safe () =
  (* the paper's central safety claim, proved formally: with the injection
     ports tied to zero, Verifiable RTL is equivalent to the original *)
  List.iter
    (fun (leaf : Chip.Archetype.leaf) ->
      let info = Verifiable.Transform.apply leaf.Chip.Archetype.mdl in
      match
        Core.Equiv.check_transform_against ~original:leaf.Chip.Archetype.mdl
          info
      with
      | Core.Equiv.Equivalent -> ()
      | Core.Equiv.Different _ ->
        Alcotest.failf "%s: transform changed behavior!"
          leaf.Chip.Archetype.mdl.Rtl.Mdl.name
      | Core.Equiv.Undecided msg ->
        Alcotest.failf "%s: undecided: %s" leaf.Chip.Archetype.mdl.Rtl.Mdl.name
          msg)
    [ Chip.Archetype.counter ~name:"eq_cnt" ();
      Chip.Archetype.fsm_ctrl ~name:"eq_fsm" ();
      Chip.Archetype.csr ~name:"eq_csr" ();
      Chip.Archetype.datapath ~name:"eq_alu" ();
      Chip.Archetype.fifo ~name:"eq_fifo" () ]

let test_equiv_finds_difference () =
  (* the bugged counter differs from the clean one, with a trace that
     actually distinguishes them in simulation *)
  let clean = (Chip.Archetype.counter ~name:"eqd_cnt" ()).Chip.Archetype.mdl in
  let bugged =
    (Chip.Archetype.counter ~name:"eqd_cnt" ~bug:true ()).Chip.Archetype.mdl
  in
  match Core.Equiv.check_modules ~a:clean ~b:bugged () with
  | Core.Equiv.Different { trace; _ } ->
    Alcotest.(check bool) "nonempty trace" true (Mc.Trace.length trace > 0);
    (* replay on both sides and compare outputs at the final cycle *)
    (* the violation is observed on the settled outputs of the final
       cycle, before that cycle's clock edge *)
    let run m =
      let nl =
        Rtl.Elaborate.run (Rtl.Design.of_modules [ m ]) ~top:m.Rtl.Mdl.name
      in
      let sim = Sim.Simulator.create nl in
      Sim.Simulator.reset sim;
      let out = ref (Bitvec.zero 5, Bitvec.zero 2) in
      List.iter
        (fun inputs ->
          Sim.Simulator.drive_all sim inputs;
          Sim.Simulator.settle sim;
          out := (Sim.Simulator.peek sim "COUNT", Sim.Simulator.peek sim "HE");
          Sim.Simulator.clock sim)
        (Mc.Trace.replay_stimulus trace);
      !out
    in
    let c0, h0 = run clean in
    let c1, h1 = run bugged in
    Alcotest.(check bool) "trace distinguishes the machines" true
      (not (Bitvec.equal c0 c1 && Bitvec.equal h0 h1))
  | Core.Equiv.Equivalent -> Alcotest.fail "bugged counter declared equivalent"
  | Core.Equiv.Undecided msg -> Alcotest.failf "undecided: %s" msg

let test_equiv_interface_mismatch () =
  let a = (Chip.Archetype.counter ~name:"eqi_a" ()).Chip.Archetype.mdl in
  let b = (Chip.Archetype.datapath ~name:"eqi_b" ()).Chip.Archetype.mdl in
  Alcotest.(check bool) "interface mismatch rejected" true
    (match Core.Equiv.check_modules ~a ~b () with
     | _ -> false
     | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "core"
    [ ("flow",
       [ Alcotest.test_case "release and verify" `Quick test_flow_release;
         Alcotest.test_case "rejects dirty RTL" `Quick test_flow_rejects_dirty_rtl;
         Alcotest.test_case "feedback on bug" `Quick test_flow_feedback_on_bug ]);
      ("campaign",
       [ Alcotest.test_case "mini campaign over bug modules" `Slow
           test_mini_campaign;
         Alcotest.test_case "parallel executor matches sequential" `Slow
           test_parallel_matches_sequential;
         Alcotest.test_case "warm cache reruns without the engines" `Slow
           test_campaign_warm_cache;
         Alcotest.test_case "one preparation per module structure" `Slow
           test_shared_cells;
         Alcotest.test_case "twins differing in one flag get two cells" `Slow
           test_twin_cells;
         Alcotest.test_case "prep_version pins the pre-fix keys" `Slow
           test_prep_version_pin;
         Alcotest.test_case "cell digest covers what keys read" `Quick
           test_cell_digest_covers;
         Alcotest.test_case "cell records keep the strategy salt" `Slow
           test_cells_keep_the_salt;
         Alcotest.test_case "a stale cell record is rewritten" `Slow
           test_stale_cell_record;
         Alcotest.test_case "bmc on a pool matches sequential" `Slow
           test_bmc_pool_matches_sequential;
         Alcotest.test_case "executor map" `Quick test_executor_map;
         Alcotest.test_case "executor race groups" `Quick
           test_executor_race_groups;
         Alcotest.test_case "race cancellation latency" `Quick
           test_executor_race_cancellation;
         Alcotest.test_case "racing matches sequential portfolio" `Slow
           test_racing_matches_sequential_portfolio;
         Alcotest.test_case "racing follows the strategy" `Slow
           test_racing_follows_strategy;
         Alcotest.test_case "trace vcd export" `Quick test_trace_vcd_export ]);
      ("classification",
       [ Alcotest.test_case "table 3 reproduction" `Slow
           test_classification_matches_paper ]);
      ("equivalence",
       [ Alcotest.test_case "transform is safe (formal)" `Slow
           test_equiv_transform_safe;
         Alcotest.test_case "finds real differences" `Quick
           test_equiv_finds_difference;
         Alcotest.test_case "interface mismatch" `Quick
           test_equiv_interface_mismatch ]);
      ("report",
       [ Alcotest.test_case "table 1" `Quick test_report_table1;
         Alcotest.test_case "table 4 and timing" `Quick
           test_report_table4_and_timing;
         Alcotest.test_case "figure 7" `Slow test_fig7_shape ]) ]
