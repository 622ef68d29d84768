(* Fault-tolerant campaign runtime: wall-clock deadlines, crash isolation
   with retry, the result cache's on-disk format, and checkpoint/resume
   through it — including a chaos test that SIGKILLs a campaign mid-run,
   twice, and proves the resumed run reaches the same verdicts without
   re-proving the checkpointed prefix.

   Process hygiene: the chaos test forks, so every test before it (and the
   fork's child itself) must stay single-domain; the domain-pool tests come
   after it in the run order below. *)

module G = Chip.Generator
module PG = Verifiable.Propgen
module M = Rtl.Mdl
module E = Rtl.Expr

let chip = lazy (G.generate ())

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
  { t with
    G.categories =
      [ { cat_a with G.units = specials;
          G.expected = { cat_a.G.expected with G.sub = 3 } } ] }

let result_key (r : Core.Campaign.prop_result) =
  let verdict =
    match r.Core.Campaign.outcome.Mc.Engine.verdict with
    | Mc.Engine.Proved -> "proved"
    | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
    | Mc.Engine.Failed _ -> "failed"
    | Mc.Engine.Resource_out m -> "resource:" ^ m
    | Mc.Engine.Error m -> "error:" ^ m
  in
  Printf.sprintf "%s/%s/%s/%s" r.Core.Campaign.module_name
    r.Core.Campaign.vunit_name r.Core.Campaign.prop_name verdict

let keys (t : Core.Campaign.t) = List.map result_key t.Core.Campaign.results

let outcome verdict =
  { Mc.Engine.verdict; engine_used = "test"; time_s = 0.0; iterations = 0;
    work_nodes = 0; perf = Mc.Engine.empty_perf }

(* ---- wall-clock deadlines ---- *)

(* a counter too wide to explore: forward reachability needs 2^28 fixpoint
   iterations, so without a deadline this check effectively never returns
   (the BDDs of counter prefixes stay tiny, so no node limit fires) *)
let wide_counter () =
  let w = 28 in
  let m = M.create "wide_cnt" in
  let m = M.add_output m "OK" 1 in
  let m = M.add_reg m "c" w E.(var "c" +: of_int ~width:w 1) in
  M.add_assign m "OK" E.(!:(var "c" ==: of_int ~width:w ((1 lsl w) - 1)))

let check_deadline_verdict name (o : Mc.Engine.outcome) =
  match o.Mc.Engine.verdict with
  | Mc.Engine.Resource_out "deadline" -> ()
  | Mc.Engine.Resource_out m ->
    Alcotest.failf "%s: resource out for %s, not the deadline" name m
  | _ -> Alcotest.failf "%s: expected Resource_out \"deadline\"" name

(* a resource-out keeps the time it spent, so Table 2's time column and the
   aggregate engine time count the runs that gave up *)
let check_time_kept name ~deadline_s (o : Mc.Engine.outcome) =
  if o.Mc.Engine.time_s < deadline_s /. 2.0 then
    Alcotest.failf "%s: time_s %.3f below half the %.1fs deadline" name
      o.Mc.Engine.time_s deadline_s

let test_deadline_bounds_bdd () =
  let m = wide_counter () in
  let budget =
    { Mc.Engine.default_budget with
      Mc.Engine.bdd_node_limit = None; wall_deadline_s = Some 0.3 }
  in
  let t0 = Unix.gettimeofday () in
  let o =
    Mc.Engine.check_property ~budget ~strategy:Mc.Engine.Bdd_forward m
      ~assert_:(Psl.Parser.fl_of_string "always OK") ~assumes:[]
  in
  check_deadline_verdict "bdd forward" o;
  Alcotest.(check bool) "wall time bounded" true
    (Unix.gettimeofday () -. t0 < 10.0);
  check_time_kept "bdd forward" ~deadline_s:0.3 o

let test_deadline_bounds_bmc () =
  let m = wide_counter () in
  (* enough frames that the unroll would run for ages without the deadline *)
  let budget =
    { Mc.Engine.default_budget with
      Mc.Engine.bmc_depth = 1_000_000; wall_deadline_s = Some 0.2 }
  in
  let t0 = Unix.gettimeofday () in
  let o =
    Mc.Engine.check_property ~budget ~strategy:Mc.Engine.Bmc m
      ~assert_:(Psl.Parser.fl_of_string "always OK") ~assumes:[]
  in
  check_deadline_verdict "bmc" o;
  Alcotest.(check bool) "wall time bounded" true
    (Unix.gettimeofday () -. t0 < 10.0);
  check_time_kept "bmc" ~deadline_s:0.2 o

let always_ok = Psl.Parser.fl_of_string "always OK"

let test_deadline_expired_at_entry () =
  (* an already-expired deadline must not hang the Auto escalation either,
     and stops it after the first rung *)
  let m = wide_counter () in
  let budget =
    { Mc.Engine.default_budget with Mc.Engine.wall_deadline_s = Some 0.0 }
  in
  let o = Mc.Engine.check_property ~budget m ~assert_:always_ok ~assumes:[] in
  check_deadline_verdict "auto" o;
  Alcotest.(check string) "auto engine" "bdd-combined" o.Mc.Engine.engine_used;
  Alcotest.(check (list string)) "auto attempts" [ "bdd-combined" ]
    o.Mc.Engine.perf.Mc.Engine.attempts;
  (* a portfolio's members run under the check's deadline, so its expiry
     reads "deadline", not "cancelled" *)
  let p = Mc.Engine.Portfolio (Mc.Engine.default_portfolio budget) in
  check_deadline_verdict "default portfolio"
    (Mc.Engine.check_property ~budget ~strategy:p m ~assert_:always_ok
       ~assumes:[])

(* Auto escalates bdd-combined -> pobdd -> bmc; with both BDD engines
   starved, BMC decides the verdict, and when every rung gives up the last
   one explains why *)
let test_auto_escalation_corners () =
  let m = wide_counter () in
  let starved =
    { Mc.Engine.default_budget with
      Mc.Engine.bdd_node_limit = Some 16; pobdd_node_limit = Some 16 }
  in
  let auto budget =
    let o =
      Mc.Engine.check_property ~budget m ~assert_:always_ok ~assumes:[]
    in
    (o.Mc.Engine.engine_used, o.Mc.Engine.verdict)
  in
  (match auto { starved with Mc.Engine.bmc_depth = 8 } with
   | "bmc", Mc.Engine.Proved_bounded 8 -> ()
   | e, _ -> Alcotest.failf "expected (bmc, bounded:8), got engine %s" e);
  match
    auto
      { starved with
        Mc.Engine.bmc_depth = 1_000_000; wall_deadline_s = Some 0.3 }
  with
  | "bmc", Mc.Engine.Resource_out "deadline" -> ()
  | e, _ ->
    Alcotest.failf "expected (bmc, resource_out:deadline), got engine %s" e

let test_deadline_none_is_unchanged () =
  (* no deadline in the budget: a feasible check still proves *)
  let m = M.create "hold_ok" in
  let m = M.add_output m "OK" 1 in
  let m = M.add_reg ~reset:(Bitvec.of_string "1") m "h" 1 (E.var "h") in
  let m = M.add_assign m "OK" (E.var "h") in
  match
    (Mc.Engine.check_property ~strategy:Mc.Engine.Bdd_forward m
       ~assert_:(Psl.Parser.fl_of_string "always OK") ~assumes:[])
      .Mc.Engine.verdict
  with
  | Mc.Engine.Proved -> ()
  | _ -> Alcotest.fail "small counter should prove without a deadline"

(* ---- cooperative SAT cancellation ---- *)

let test_solver_should_stop () =
  (* pigeonhole PHP(9,8): exponential for CDCL, so the always-true
     cancellation callback must fire long before any real answer *)
  let n = 8 in
  let v i j = ((i - 1) * n) + j in
  let clauses =
    List.concat_map
      (fun i -> [ List.init n (fun j -> v i (j + 1)) ])
      (List.init (n + 1) (fun i -> i + 1))
    @ List.concat_map
        (fun j ->
          List.concat_map
            (fun i ->
              List.filter_map
                (fun i' -> if i' > i then Some [ -v i j; -v i' j ] else None)
                (List.init (n + 1) (fun k -> k + 1)))
            (List.init (n + 1) (fun k -> k + 1)))
        (List.init n (fun j -> j + 1))
  in
  match
    fst
      (Oneshot.solve ~should_stop:(fun () -> true) ~nvars:((n + 1) * n)
         clauses)
  with
  | Solver.Unknown -> ()
  | Solver.Sat _ -> Alcotest.fail "PHP is unsatisfiable"
  | Solver.Unsat -> Alcotest.fail "cancellation never fired"

(* ---- cache robustness ---- *)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* entries the store at [path] loads *)
let stored path =
  match Mc.Cache.load path with Some c -> Mc.Cache.length c | None -> 0

(* [f ()] with stderr sent to a file; its result and what it wrote there *)
let capture_stderr f =
  let tmp = Filename.temp_file "dicheck_stderr" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = read_file tmp in
  Sys.remove tmp;
  (r, text)

let test_cache_tolerates_corruption () =
  let path = Filename.temp_file "dicheck_cache" ".bin" in
  (* garbage file: empty cache, no exception *)
  write_file path "this is not a cache";
  Alcotest.(check int) "garbage loads as empty" 0 (stored path);
  (* a valid save round-trips *)
  let c = Mc.Cache.create () in
  Mc.Cache.add c ~key:"k1" (outcome Mc.Engine.Proved);
  Mc.Cache.save c path;
  let c2 = Mc.Cache.open_file path in
  Mc.Cache.close c2;
  Alcotest.(check int) "round trip" 1 (Mc.Cache.length c2);
  (match Mc.Cache.find c2 ~key:"k1" with
   | Some o ->
     Alcotest.(check bool) "verdict survives" true
       (o.Mc.Engine.verdict = Mc.Engine.Proved)
   | None -> Alcotest.fail "entry lost in round trip");
  (* truncation (a crash mid-write of a non-atomic writer): empty cache *)
  let full = read_file path in
  write_file path (String.sub full 0 (String.length full / 2));
  Alcotest.(check int) "truncated loads as empty" 0 (stored path);
  (* opening garbage starts a fresh store in its place *)
  write_file path "this is not a cache";
  let c3 = Mc.Cache.open_file path in
  Alcotest.(check int) "garbage opens empty" 0 (Mc.Cache.length c3);
  Mc.Cache.add c3 ~key:"k2" (outcome Mc.Engine.Proved);
  Mc.Cache.close c3;
  Alcotest.(check int) "a fresh store replaced the garbage" 1 (stored path);
  Sys.remove path

let test_cache_save_is_atomic () =
  let dir = Filename.temp_file "dicheck_cachedir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "results.cache" in
  let c = Mc.Cache.create () in
  Mc.Cache.add c ~key:"k" (outcome (Mc.Engine.Resource_out "deadline"));
  Mc.Cache.save c path;
  (* temp-and-rename must leave exactly the target file behind *)
  Alcotest.(check (list string)) "no temp droppings" [ "results.cache" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Alcotest.(check int) "saved cache loads" 1 (stored path);
  Sys.remove path;
  Unix.rmdir dir

(* ---- the store's format ---- *)

let trace =
  [ { Mc.Trace.step = 0;
      inputs =
        [ ("din", Bitvec.of_string "10110011");
          ("wide", Bitvec.of_string (String.make 70 '1')) ];
      state = [ ("q", Bitvec.of_string "0") ] };
    { Mc.Trace.step = 1;
      inputs =
        [ ("din", Bitvec.of_string "00000001");
          ("wide", Bitvec.of_string ("1" ^ String.make 69 '0')) ];
      state = [ ("q", Bitvec.of_string "1") ] } ]

(* the outcomes the committed fixture in the current format decodes to:
   all five verdicts, a multi-width trace, the -1 sentinels, floats that
   need all 17 digits and error text with quotes, newlines and raw bytes *)
let pinned =
  let perf =
    { Mc.Engine.bdd_peak = 812; bdd_polls = 9; fix_iterations = 3;
      peak_set_size = 40; sat_decisions = 1234; sat_conflicts = 56;
      sat_propagations = 78901; sat_restarts = 2; incremental_reuse = 4;
      unroll_depth = 20; final_k = -1; ic3_frames = -1;
      attempts = [ "bdd-combined"; "pobdd"; "bmc" ] }
  in
  let o verdict engine_used time_s =
    { Mc.Engine.verdict; engine_used; time_s; iterations = 3;
      work_nodes = 812; perf }
  in
  [ ("fp-proved", o Mc.Engine.Proved "bdd-combined" 0.1);
    ("fp-bounded", o (Mc.Engine.Proved_bounded 20) "bmc" (0.1 +. 0.2));
    ("fp-failed", o (Mc.Engine.Failed trace) "bdd-combined" 1e-7);
    ("fp-ro", o (Mc.Engine.Resource_out "bdd-nodes") "pobdd" 12.5);
    ( "fp-error",
      o (Mc.Engine.Error "Failure(\"boom\")\nat \xff") "crash" 0.0 );
    ("fp-empty-perf",
     { (o Mc.Engine.Proved "self-heal" 2.0) with
       Mc.Engine.perf = Mc.Engine.empty_perf }) ]

let fixture name = Filename.concat "fixtures" name

(* the cache and journal files a build before this format wrote: each loads
   as no verdict, with a warning; opening one starts a fresh store *)
let test_old_formats_rejected () =
  List.iter
    (fun name ->
      let loaded, warning =
        capture_stderr (fun () -> Mc.Cache.load (fixture name))
      in
      (match loaded with
       | Some c ->
         Alcotest.(check int) (name ^ ": no verdict") 0 (Mc.Cache.length c)
       | None -> Alcotest.failf "fixture %s is missing" name);
      Alcotest.(check bool) (name ^ ": warns") true
        (String.starts_with ~prefix:"warning: result cache" warning);
      let path = Filename.temp_file "dicheck_old" ".cache" in
      write_file path (read_file (fixture name));
      let c, _ = capture_stderr (fun () -> Mc.Cache.open_file path) in
      Mc.Cache.add c ~key:"k" (outcome Mc.Engine.Proved);
      Mc.Cache.close c;
      Alcotest.(check int) (name ^ ": replaced by a fresh store") 1
        (stored path);
      Sys.remove path)
    [ "dicheck-cache-v3.cache"; "dicheck-cache-v4.cache";
      "dicheck-journal-v2.journal" ]

(* the fixture's two cell records: the digests of the pre-fix chip's
   a_csr and C_leaf06 cells and their key counts (test_core checks that
   the keys are still what preparing those cells computes) *)
let pinned_cells =
  [ ("3516be463badf33070c7fefb74e2f302", 5);
    ("c0364c5a45511a76426b83269ac8ee32", 7) ]

let is_hex_digest k =
  String.length k = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k

(* The fixture is named after the current schema. A field added to an
   outcome or its perf makes the decoder reject it until the schema is
   bumped and a fixture in the new format is committed. It was written
   through [Mc.Cache.add] (the [pinned] outcomes) and [Mc.Cache.add_cell]
   (two cells of the pre-fix chip). *)
let test_current_format_pinned () =
  match Mc.Cache.load (fixture (Mc.Cache.schema ^ ".cache")) with
  | None -> Alcotest.failf "no fixture for %s" Mc.Cache.schema
  | Some c ->
    Alcotest.(check int) "every verdict decodes" (List.length pinned)
      (Mc.Cache.length c);
    List.iter
      (fun (key, o) ->
        Alcotest.(check bool) (key ^ " decodes to its pinned outcome") true
          (Mc.Cache.find c ~key = Some o))
      pinned;
    Alcotest.(check int) "every cell record decodes"
      (List.length pinned_cells) (Mc.Cache.cells c);
    List.iter
      (fun (digest, n) ->
        match Mc.Cache.find_cell c ~digest with
        | Some keys ->
          Alcotest.(check int) (digest ^ " holds its keys") n
            (List.length (List.filter is_hex_digest keys))
        | None -> Alcotest.failf "cell %s missing" digest)
      pinned_cells

let gen_outcome =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_range 0 12) in
  let bitvec =
    int_range 1 70 >>= fun w ->
    string_size ~gen:(oneofl [ '0'; '1' ]) (return w) >|= Bitvec.of_string
  in
  let bindings = list_size (int_range 0 4) (pair bytes bitvec) in
  let cycle =
    map3
      (fun step inputs state -> { Mc.Trace.step; inputs; state })
      small_nat bindings bindings
  in
  let verdict =
    oneof
      [ return Mc.Engine.Proved;
        map (fun d -> Mc.Engine.Proved_bounded d) small_nat;
        map (fun t -> Mc.Engine.Failed t) (list_size (int_range 0 4) cycle);
        map (fun c -> Mc.Engine.Resource_out c) bytes;
        map (fun m -> Mc.Engine.Error m) bytes ]
  in
  let count = oneof [ return (-1); small_nat; int ] in
  let time = float >|= fun f -> if Float.is_finite f then f else 0.0 in
  let* verdict and* engine_used = bytes and* time_s = time
  and* counts = list_repeat 14 count
  and* attempts = list_size (int_range 0 4) bytes in
  match counts with
  | [ iterations; work_nodes; bdd_peak; bdd_polls; fix_iterations;
      peak_set_size; sat_decisions; sat_conflicts; sat_propagations;
      sat_restarts; incremental_reuse; unroll_depth; final_k; ic3_frames ] ->
    return
      { Mc.Engine.verdict; engine_used; time_s; iterations; work_nodes;
        perf =
          { Mc.Engine.bdd_peak; bdd_polls; fix_iterations; peak_set_size;
            sat_decisions; sat_conflicts; sat_propagations; sat_restarts;
            incremental_reuse; unroll_depth; final_k; ic3_frames; attempts }
      }
  | _ -> assert false

(* a cell record: any digest text, and up to 40 keys *)
let gen_cell =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_range 0 40) in
  pair bytes (list_size (int_range 0 40) bytes)

(* an outcome, and a store holding it and a cell record: the outcome
   round-trips through its JSON, and both records through the appended
   file and through [save] *)
let qcheck_outcome_roundtrip =
  QCheck.Test.make ~count:300 ~name:"outcomes round-trip through the codec"
    (QCheck.make (QCheck.Gen.pair gen_outcome gen_cell))
    (fun (o, (digest, keys)) ->
      let text = Obs.Json.to_string (Mc.Cache.outcome_to_json o) in
      let path = Filename.temp_file "dicheck_codec" ".cache" in
      let holds c =
        Mc.Cache.find c ~key:digest = Some o
        && Mc.Cache.find_cell c ~digest = Some keys
        && Mc.Cache.length c = 1 && Mc.Cache.cells c = 1
      in
      let appended =
        let c = Mc.Cache.open_file path in
        Mc.Cache.add c ~key:digest o;
        Mc.Cache.add_cell c ~digest keys;
        Mc.Cache.close c;
        Mc.Cache.load path
      in
      let saved =
        Option.bind appended (fun c ->
            Mc.Cache.save c path;
            Mc.Cache.load path)
      in
      Sys.remove path;
      (match Obs.Json.parse text with
       | Ok j -> Mc.Cache.outcome_of_json j = Ok o
       | Error _ -> false)
      && Option.fold ~none:false ~some:holds appended
      && Option.fold ~none:false ~some:holds saved)

(* the cell records written beside [pinned] *)
let written_cells =
  [ ("cell-a", [ "fp-proved"; "fp-failed" ]); ("cell-b", []);
    ("cell-c", [ "k\"1"; "k\n2"; "fp-ro" ]) ]

(* a store holding [pinned] and [written_cells], written through the
   append path, records of both kinds interleaved *)
let valid_store =
  lazy
    (let path = Filename.temp_file "dicheck_valid" ".cache" in
     let c = Mc.Cache.open_file path in
     List.iteri
       (fun i (key, o) ->
         Mc.Cache.add c ~key o;
         match List.nth_opt written_cells i with
         | Some (digest, keys) -> Mc.Cache.add_cell c ~digest keys
         | None -> ())
       pinned;
     Mc.Cache.close c;
     let text = read_file path in
     Sys.remove path;
     text)

(* arbitrary bytes, truncations and byte flips of a valid store: loading
   and opening never raise, and every entry they yield was written *)
let qcheck_damaged_store =
  let damaged =
    let open QCheck.Gen in
    let valid = Lazy.force valid_store in
    let n = String.length valid in
    oneof
      [ string_size ~gen:char (int_range 0 200);
        map (fun k -> String.sub valid 0 k) (int_bound n);
        map
          (fun flips ->
            let b = Bytes.of_string valid in
            List.iter
              (fun (i, x) ->
                Bytes.set b i
                  (Char.chr (Char.code (Bytes.get b i) lxor (1 + x))))
              flips;
            Bytes.to_string b)
          (list_size (int_range 1 3) (pair (int_bound (n - 1)) (int_bound 254)))
      ]
  in
  QCheck.Test.make ~count:300 ~name:"damaged stores yield only written entries"
    (QCheck.make ~print:String.escaped damaged) (fun text ->
      let path = Filename.temp_file "dicheck_damaged" ".cache" in
      let only_written c =
        let found =
          List.filter_map
            (fun (key, o) -> Option.map (( = ) o) (Mc.Cache.find c ~key))
            pinned
        and found_cells =
          List.filter_map
            (fun (digest, keys) ->
              Option.map (( = ) keys) (Mc.Cache.find_cell c ~digest))
            written_cells
        in
        List.for_all Fun.id (found @ found_cells)
        && List.length found = Mc.Cache.length c
        && List.length found_cells = Mc.Cache.cells c
      in
      let ok, _ =
        capture_stderr (fun () ->
            write_file path text;
            match Mc.Cache.load path with
            | None -> false
            | Some c ->
              let c' = Mc.Cache.open_file path in
              Mc.Cache.close c';
              only_written c && only_written c'
              && Mc.Cache.length c = Mc.Cache.length c'
              && Mc.Cache.cells c = Mc.Cache.cells c'
              && stored path = Mc.Cache.length c)
      in
      Sys.remove path;
      ok)

(* ---- the store as a checkpoint ---- *)

let test_journal_round_trip () =
  let path = Filename.temp_file "dicheck_store" ".cache" in
  Sys.remove path;
  let c = Mc.Cache.open_file path in
  Alcotest.(check int) "fresh store holds nothing" 0 (Mc.Cache.length c);
  Mc.Cache.add c ~key:"aaa" (outcome Mc.Engine.Proved);
  Mc.Cache.add c ~key:"bbb" (outcome (Mc.Engine.Proved_bounded 7));
  Mc.Cache.close c;
  Alcotest.(check int) "two records on disk" 2 (stored path);
  let c2 = Mc.Cache.open_file path in
  Alcotest.(check int) "reopening loads both" 2 (Mc.Cache.length c2);
  (match Mc.Cache.find c2 ~key:"bbb" with
   | Some o ->
     Alcotest.(check bool) "outcome round-trips" true
       (o.Mc.Engine.verdict = Mc.Engine.Proved_bounded 7)
   | None -> Alcotest.fail "bbb not loaded");
  Mc.Cache.add c2 ~key:"ccc" (outcome Mc.Engine.Proved);
  let size = (Unix.stat path).Unix.st_size in
  Mc.Cache.add c2 ~key:"ccc" (outcome Mc.Engine.Proved);
  Alcotest.(check int) "an unchanged entry is not appended again" size
    (Unix.stat path).Unix.st_size;
  (* a healed verdict recorded after its resource-out overrides it *)
  Mc.Cache.add c2 ~key:"aaa" (outcome (Mc.Engine.Resource_out "bdd-nodes"));
  Mc.Cache.add c2 ~key:"aaa" (outcome (Mc.Engine.Failed trace));
  Mc.Cache.close c2;
  match Mc.Cache.load path with
  | None -> Alcotest.fail "store lost"
  | Some c3 ->
    Alcotest.(check int) "append after reopening" 3 (Mc.Cache.length c3);
    Alcotest.(check bool) "the later record wins" true
      (Option.map (fun o -> o.Mc.Engine.verdict) (Mc.Cache.find c3 ~key:"aaa")
       = Some (Mc.Engine.Failed trace));
    Sys.remove path

let test_journal_tolerates_torn_tail () =
  let path = Filename.temp_file "dicheck_store" ".cache" in
  Sys.remove path;
  let c = Mc.Cache.open_file path in
  Mc.Cache.add c ~key:"aaa" (outcome Mc.Engine.Proved);
  Mc.Cache.add c ~key:"bbb" (outcome Mc.Engine.Proved);
  Mc.Cache.close c;
  (* simulate a SIGKILL mid-append: a partial last line *)
  write_file path (read_file path ^ "{\"key\":\"ccc\",\"outco");
  Alcotest.(check int) "torn tail dropped, prefix kept" 2 (stored path);
  let c2, _ = capture_stderr (fun () -> Mc.Cache.open_file path) in
  Alcotest.(check int) "reopening over a torn tail" 2 (Mc.Cache.length c2);
  Mc.Cache.close c2;
  (* a foreign format version is ignored wholesale *)
  write_file path "some-other-format-v9\naaa 00\n";
  Alcotest.(check int) "foreign version ignored" 0 (stored path);
  Sys.remove path

(* records appended after a torn line must stay readable: opening the
   store cuts the torn line off first *)
let test_store_append_after_torn_tail () =
  let path = Filename.temp_file "dicheck_store" ".cache" in
  Sys.remove path;
  let c = Mc.Cache.open_file path in
  Mc.Cache.add c ~key:"aaa" (outcome Mc.Engine.Proved);
  Mc.Cache.add c ~key:"bbb" (outcome Mc.Engine.Proved);
  Mc.Cache.close c;
  let full = read_file path in
  write_file path (String.sub full 0 (String.length full - 40));
  let c, _ = capture_stderr (fun () -> Mc.Cache.open_file path) in
  Alcotest.(check int) "the torn record is dropped" 1 (Mc.Cache.length c);
  Mc.Cache.add c ~key:"ccc" (outcome Mc.Engine.Proved);
  Mc.Cache.add c ~key:"ddd" (outcome Mc.Engine.Proved);
  Mc.Cache.close c;
  let c = Mc.Cache.open_file path in
  Mc.Cache.close c;
  Alcotest.(check (list bool)) "records appended after the tear survive"
    [ true; false; true; true ]
    (List.map
       (fun key -> Mc.Cache.find c ~key <> None)
       [ "aaa"; "bbb"; "ccc"; "ddd" ]);
  Sys.remove path

(* ---- chaos: SIGKILL mid-campaign, twice, then resume ---- *)

let count calls ~module_name:_ ~prop_name:_ ~fingerprint:_ ~attempt:_ =
  incr calls

let test_chaos_kill_resume () =
  let mini = mini_chip () in
  let clean_calls = ref 0 in
  let clean = Core.Campaign.run ~fault_hook:(count clean_calls) mini in
  let path = Filename.temp_file "dicheck_chaos" ".cache" in
  Sys.remove path;
  (* a child campaign on the store that kills itself — no unwinding, no
     at_exit — as its third engine run starts: the two verdicts before it
     were fsync'd when they were recorded *)
  let run_and_kill () =
    match Unix.fork () with
    | 0 ->
      (try
         let cache = Mc.Cache.open_file path in
         let engines = ref 0 in
         let kill ~module_name:_ ~prop_name:_ ~fingerprint:_ ~attempt:_ =
           incr engines;
           if !engines = 3 then Unix.kill (Unix.getpid ()) Sys.sigkill
         in
         ignore (Core.Campaign.run ~cache ~fault_hook:kill mini)
       with _ -> ());
      (* only reachable if the kill never fired *)
      Unix._exit 99
    | pid ->
      (match Unix.waitpid [] pid with
       | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
       | _ -> Alcotest.fail "child should have died by SIGKILL");
      stored path
  in
  let first = run_and_kill () in
  let second = run_and_kill () in
  Alcotest.(check (list int)) "each kill left the verdicts before it" [ 2; 4 ]
    [ first; second ];
  let before = Option.get (Mc.Cache.load path) in
  let cache = Mc.Cache.open_file path in
  let resumed_calls = ref 0 and rerun = ref false in
  let fresh ~module_name:_ ~prop_name:_ ~fingerprint ~attempt:_ =
    incr resumed_calls;
    if Mc.Cache.find before ~key:fingerprint <> None then rerun := true
  in
  let resumed = Core.Campaign.run ~cache ~fault_hook:fresh mini in
  Mc.Cache.close cache;
  (* nothing is proved twice: the resumed run executes exactly the
     obligations the store does not cover *)
  Alcotest.(check bool) "no engine for a checkpointed verdict" false !rerun;
  Alcotest.(check int) "resume re-proves only the un-checkpointed rest"
    (!clean_calls - second) !resumed_calls;
  Alcotest.(check int) "the checkpointed verdicts are cache hits"
    (clean.Core.Campaign.cache_hits + second)
    resumed.Core.Campaign.cache_hits;
  Alcotest.(check (list string)) "resumed verdicts = undisturbed verdicts"
    (keys clean) (keys resumed);
  Sys.remove path

(* ---- crash isolation and the retry ladder ---- *)

(* the fingerprint of the first obligation a sequential campaign executes:
   a deterministic target for fault injection *)
let first_fingerprint mini =
  let fp = ref None in
  let record ~module_name:_ ~prop_name:_ ~fingerprint ~attempt:_ =
    if !fp = None then fp := Some fingerprint
  in
  ignore (Core.Campaign.run ~fault_hook:record mini);
  match !fp with
  | Some fp -> fp
  | None -> Alcotest.fail "campaign never reached an engine"

let test_crash_isolation () =
  let mini = mini_chip () in
  let clean = Core.Campaign.run mini in
  let fp = first_fingerprint mini in
  let crash ~module_name:_ ~prop_name:_ ~fingerprint ~attempt:_ =
    if fingerprint = fp then failwith "injected fault"
  in
  let run jobs =
    Core.Campaign.run ~jobs ~fault_hook:crash ~max_retries:1 mini
  in
  let seq = run 1 in
  let g = seq.Core.Campaign.grand_total in
  Alcotest.(check bool) "error verdicts recorded" true
    (g.Core.Campaign.errors > 0);
  Alcotest.(check bool) "crash retries happened" true
    (seq.Core.Campaign.retries > 0);
  (* the poisoned obligation crashed through its whole ladder; everything
     else is untouched *)
  List.iter2
    (fun (c : Core.Campaign.prop_result) (s : Core.Campaign.prop_result) ->
      match s.Core.Campaign.outcome.Mc.Engine.verdict with
      | Mc.Engine.Error msg ->
        Alcotest.(check bool) "error carries the exception" true
          (String.length msg > 0);
        Alcotest.(check int) "ladder ran 1 + max_retries attempts" 2
          s.Core.Campaign.attempts
      | _ ->
        Alcotest.(check string) "other obligations unaffected" (result_key c)
          (result_key s))
    clean.Core.Campaign.results seq.Core.Campaign.results;
  (* identical rows from the pool: isolation is schedule-independent *)
  let par = run 4 in
  Alcotest.(check (list string)) "sequential = pool under injected crashes"
    (keys seq) (keys par);
  (* the error column flows through Table 2 and the CSV *)
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let table = Format.asprintf "%a" Core.Campaign.pp_table2 seq in
  Alcotest.(check bool) "table has an Err column" true
    (contains (List.hd (String.split_on_char '\n' table)) "Err");
  let csv = Core.Campaign.to_csv seq in
  Alcotest.(check bool) "csv reports error verdicts" true
    (List.exists
       (fun line ->
         (* verdict column "error" with a non-empty cause right after it *)
         match String.split_on_char ',' line with
         | _cat :: _m :: _v :: _p :: _cls :: "error" :: cause :: _ ->
           cause <> ""
         | _ -> false)
       (String.split_on_char '\n' csv))

let test_retry_recovers_transient_crash () =
  let mini = mini_chip () in
  let clean = Core.Campaign.run mini in
  let fp = first_fingerprint mini in
  let crash_once ~module_name:_ ~prop_name:_ ~fingerprint ~attempt =
    if fingerprint = fp && attempt = 1 then failwith "transient fault"
  in
  let r = Core.Campaign.run ~fault_hook:crash_once mini in
  Alcotest.(check (list string)) "retry reaches the clean verdicts"
    (keys clean) (keys r);
  Alcotest.(check int) "exactly one retry" 1 r.Core.Campaign.retries;
  Alcotest.(check int) "no error verdicts" 0
    r.Core.Campaign.grand_total.Core.Campaign.errors;
  Alcotest.(check bool) "the recovered obligation took two attempts" true
    (List.exists
       (fun (pr : Core.Campaign.prop_result) -> pr.Core.Campaign.attempts = 2)
       r.Core.Campaign.results)

(* ---- resuming a campaign from its cache file ---- *)

let test_journal_resume_proves_nothing_twice () =
  let mini = mini_chip () in
  let path = Filename.temp_file "dicheck_resume" ".cache" in
  Sys.remove path;
  let c = Mc.Cache.open_file path in
  let calls1 = ref 0 in
  let first = Core.Campaign.run ~cache:c ~fault_hook:(count calls1) mini in
  Mc.Cache.close c;
  Alcotest.(check bool) "first run ran engines" true (!calls1 > 0);
  let c2 = Mc.Cache.open_file path in
  Alcotest.(check int) "the store holds every distinct obligation" !calls1
    (Mc.Cache.length c2);
  let calls2 = ref 0 in
  let snapshots = ref [] in
  let progress (s : Core.Status.snapshot) = snapshots := s :: !snapshots in
  let second =
    Core.Campaign.run ~cache:c2 ~fault_hook:(count calls2) ~progress mini
  in
  Mc.Cache.close c2;
  Alcotest.(check int) "resume runs zero engines" 0 !calls2;
  Alcotest.(check int) "every verdict a cache hit"
    (List.length second.Core.Campaign.results)
    second.Core.Campaign.cache_hits;
  Alcotest.(check bool) "results flag the hits" true
    (List.for_all
       (fun (r : Core.Campaign.prop_result) -> r.Core.Campaign.cache_hit)
       second.Core.Campaign.results);
  Alcotest.(check (list string)) "resumed verdicts identical" (keys first)
    (keys second);
  (* progress stays sane on resume: done counts up to total, never past *)
  let total = List.length second.Core.Campaign.results in
  Alcotest.(check bool) "done <= total and monotone" true
    (List.for_all
       (fun (s : Core.Status.snapshot) ->
         s.Core.Status.s_done >= 1
         && s.Core.Status.s_done <= s.Core.Status.s_total)
       !snapshots);
  Alcotest.(check int) "final done = total" total
    (match !snapshots with
     | last :: _ -> last.Core.Status.s_done
     | [] -> -1);
  Sys.remove path

let test_journal_partial_resume () =
  let mini = mini_chip () in
  let path = Filename.temp_file "dicheck_partial" ".cache" in
  Sys.remove path;
  let c = Mc.Cache.open_file path in
  let calls1 = ref 0 in
  let first = Core.Campaign.run ~cache:c ~fault_hook:(count calls1) mini in
  Mc.Cache.close c;
  (* keep the header and every record up to the third verdict, the cell
     records among them included, then a torn tail — a hand-made crash
     prefix *)
  let rec upto_third_verdict n = function
    | [] -> []
    | line :: rest ->
      let verdict = String.starts_with ~prefix:"{\"key\":" line in
      let n = if verdict then n + 1 else n in
      line :: (if n = 3 then [] else upto_third_verdict n rest)
  in
  let lines = String.split_on_char '\n' (read_file path) in
  write_file path
    (String.concat "\n" (upto_third_verdict 0 lines) ^ "\ntorn");
  let c2, _ = capture_stderr (fun () -> Mc.Cache.open_file path) in
  let loaded = Mc.Cache.length c2 in
  Alcotest.(check int) "the prefix's three records loaded" 3 loaded;
  let calls2 = ref 0 in
  let second = Core.Campaign.run ~cache:c2 ~fault_hook:(count calls2) mini in
  Mc.Cache.close c2;
  Alcotest.(check int) "only the missing obligations re-run"
    (!calls1 - loaded) !calls2;
  Alcotest.(check (list string)) "verdicts identical after partial resume"
    (keys first) (keys second);
  Sys.remove path

(* a raced key whose every member crashes: the group still reaches its
   combine, which releases the key's claim, so each sibling queued behind
   it runs its own check and the run ends; the key's rows are errors and
   every other row is the clean run's *)
let test_raced_crash_releases_claim () =
  let mini = mini_chip () in
  let strategy =
    Mc.Engine.Portfolio (Mc.Engine.default_portfolio Mc.Engine.default_budget)
  in
  let keys =
    List.map
      (fun (w : Core.Campaign.work) ->
        Mc.Obligation.fingerprint
          (Mc.Obligation.prepare ~strategy w.Core.Campaign.w_mdl
             ~assert_:w.Core.Campaign.w_assert
             ~assumes:w.Core.Campaign.w_assumes ~meta:()))
      (Core.Campaign.work_items mini)
  in
  let rows k = List.length (List.filter (String.equal k) keys) in
  let target =
    List.fold_left
      (fun best k -> if rows k > rows best then k else best)
      (List.hd keys) keys
  in
  Alcotest.(check bool) "the crashing key has siblings" true (rows target > 1);
  let crash ~module_name:_ ~prop_name:_ ~fingerprint ~attempt:_ =
    if fingerprint = target then failwith "injected fault"
  in
  let run ?fault_hook () =
    Core.Campaign.run ~strategy ~jobs:4 ?fault_hook
      ~cache:(Mc.Cache.create ()) mini
  in
  let clean = run () and crashed = run ~fault_hook:crash () in
  List.iter2
    (fun key
         ((c : Core.Campaign.prop_result), (r : Core.Campaign.prop_result)) ->
      if key = target then
        match r.Core.Campaign.outcome.Mc.Engine.verdict with
        | Mc.Engine.Error _ -> ()
        | _ -> Alcotest.failf "%s: a crashed key's row is not an error"
                 (result_key r)
      else
        Alcotest.(check string) "other obligations unaffected" (result_key c)
          (result_key r))
    keys
    (List.combine clean.Core.Campaign.results crashed.Core.Campaign.results)

(* ---- executor crash isolation ---- *)

let test_executor_map_result () =
  let input = Array.init 101 (fun i -> i) in
  let f i = if i mod 10 = 3 then failwith "boom" else i * 2 in
  List.iter
    (fun jobs ->
      let r =
        Core.Executor.map_result (Core.Executor.of_jobs (Some jobs)) f input
      in
      Array.iteri
        (fun i x ->
          match x with
          | Ok v ->
            Alcotest.(check bool)
              (Printf.sprintf "jobs=%d ok at %d" jobs i) true
              (i mod 10 <> 3 && v = i * 2)
          | Error (Failure m) ->
            Alcotest.(check bool)
              (Printf.sprintf "jobs=%d error at %d" jobs i) true
              (i mod 10 = 3 && m = "boom")
          | Error _ -> Alcotest.fail "unexpected exception")
        r)
    [ 1; 4 ]

(* a raced portfolio campaign whose deadline has already passed: every
   member runs under the obligation's deadline, so the resource-outs read
   "deadline" — "cancelled" is only for a member a sibling's verdict
   stopped *)
let test_raced_deadline_cause () =
  let budget =
    { Mc.Engine.default_budget with Mc.Engine.wall_deadline_s = Some 0.0 }
  in
  let t =
    Core.Campaign.run ~budget
      ~strategy:(Mc.Engine.Portfolio (Mc.Engine.default_portfolio budget))
      ~jobs:2 ~cache:(Mc.Cache.create ()) (mini_chip ())
  in
  let causes = Core.Campaign.resource_out_causes t in
  Alcotest.(check bool) "deadline causes" true
    (List.mem_assoc "deadline" causes);
  Alcotest.(check bool) "no cancelled cause" false
    (List.mem_assoc "cancelled" causes)

let () =
  Alcotest.run "runtime"
    [ ("deadline",
       [ Alcotest.test_case "bounds a pathological BDD obligation" `Quick
           test_deadline_bounds_bdd;
         Alcotest.test_case "bounds a pathological BMC unroll" `Quick
           test_deadline_bounds_bmc;
         Alcotest.test_case "expired at entry" `Quick
           test_deadline_expired_at_entry;
         Alcotest.test_case "auto escalation corners" `Quick
           test_auto_escalation_corners;
         Alcotest.test_case "absent deadline changes nothing" `Quick
           test_deadline_none_is_unchanged ]);
      ("sat-cancel",
       [ Alcotest.test_case "should_stop interrupts CDCL" `Quick
           test_solver_should_stop ]);
      ("cache-robustness",
       [ Alcotest.test_case "corrupt and truncated files load empty" `Quick
           test_cache_tolerates_corruption;
         Alcotest.test_case "save is atomic" `Quick
           test_cache_save_is_atomic ]);
      ("cache-format",
       [ Alcotest.test_case "older formats load as no verdict" `Quick
           test_old_formats_rejected;
         Alcotest.test_case "the current format decodes to pinned outcomes"
           `Quick test_current_format_pinned;
         QCheck_alcotest.to_alcotest qcheck_outcome_roundtrip;
         QCheck_alcotest.to_alcotest qcheck_damaged_store ]);
      ("journal",
       [ Alcotest.test_case "round trip and resume-append" `Quick
           test_journal_round_trip;
         Alcotest.test_case "torn tail and foreign versions" `Quick
           test_journal_tolerates_torn_tail;
         Alcotest.test_case "appends after a torn tail survive" `Quick
           test_store_append_after_torn_tail ]);
      (* forks: must precede anything that spawns domains *)
      ("chaos",
       [ Alcotest.test_case "SIGKILL mid-run, resume, same verdicts" `Quick
           test_chaos_kill_resume ]);
      ("crash-isolation",
       [ Alcotest.test_case "injected crash becomes an Error row" `Quick
           test_crash_isolation;
         Alcotest.test_case "retry recovers a transient crash" `Quick
           test_retry_recovers_transient_crash;
         Alcotest.test_case "a raced key whose members all crash" `Quick
           test_raced_crash_releases_claim ]);
      ("resume",
       [ Alcotest.test_case "full journal replays everything" `Quick
           test_journal_resume_proves_nothing_twice;
         Alcotest.test_case "partial journal re-runs only the rest" `Quick
           test_journal_partial_resume ]);
      ("executor",
       [ Alcotest.test_case "map_result isolates per-item crashes" `Quick
           test_executor_map_result ]);
      ("racing",
       [ Alcotest.test_case "expired deadline reads deadline" `Quick
           test_raced_deadline_cause ]) ]
