(* Observability stack: the JSON codec, the telemetry collector, the Chrome
   trace export, and the campaign-level guarantees built on them — counter
   determinism for sequential runs and schedule-independent perf aggregates
   between the sequential and pool executors. *)

module T = Obs.Telemetry
module J = Obs.Json
module G = Chip.Generator
module M = Rtl.Mdl
module E = Rtl.Expr

let chip = lazy (G.generate ())

(* same cut-down campaign fixture as test_runtime: category A bug modules
   only, enough to exercise caching and both executors cheaply *)
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

(* ---- JSON round-trips ---- *)

let sample_json =
  J.Obj
    [ ("schema", J.String "test-v1");
      ("ok", J.Bool true);
      ("nothing", J.Null);
      ("n", J.Int 42);
      ("neg", J.Int (-7));
      ("x", J.Float 1.5);
      ("s", J.String "line\nbreak \"quoted\" back\\slash");
      ("xs", J.List [ J.Int 1; J.Int 2; J.Int 3 ]);
      ("nested", J.Obj [ ("empty_list", J.List []); ("empty_obj", J.Obj []) ])
    ]

let test_json_roundtrip () =
  List.iter
    (fun render ->
      match J.parse (render sample_json) with
      | Ok v -> Alcotest.(check bool) "round-trip preserves" true
                  (v = sample_json)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ J.to_string; J.to_string_pretty ]

let test_json_parse_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "tru"; "\"\\q\"" ] in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    bad;
  (* \uXXXX decodes to UTF-8 *)
  match J.parse "\"\\u00e9\"" with
  | Ok (J.String "\xc3\xa9") -> ()
  | Ok _ -> Alcotest.fail "unicode escape decoded wrong"
  | Error e -> Alcotest.failf "unicode escape rejected: %s" e

(* ---- collector basics ---- *)

let test_collector_merge () =
  T.start ();
  T.count "apples";
  T.count ~n:4 "apples";
  T.count "pears";
  let v = T.span ~cat:"test" ~args:[ ("k", "v") ] "outer" (fun () ->
      T.span ~cat:"test" "inner" (fun () -> 17))
  in
  Alcotest.(check int) "span returns the thunk's value" 17 v;
  (try T.span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  let r = T.stop () in
  Alcotest.(check int) "counters sum" 5 (T.counter r "apples");
  Alcotest.(check int) "second counter" 1 (T.counter r "pears");
  Alcotest.(check int) "absent counter is 0" 0 (T.counter r "nope");
  Alcotest.(check int) "one recording domain" 1 r.T.domains;
  let names = List.map (fun (s : T.span) -> s.T.name) r.T.spans in
  Alcotest.(check bool) "spans recorded, raising included" true
    (List.mem "outer" names && List.mem "inner" names
     && List.mem "raiser" names);
  List.iter
    (fun (s : T.span) ->
      Alcotest.(check bool) "durations are sane" true
        (s.T.dur_us >= 0.0 && s.T.ts_us >= 0.0))
    r.T.spans;
  (* stop really uninstalls *)
  Alcotest.(check bool) "inactive after stop" false (T.active ())

let test_stop_without_start () =
  let r = T.stop () in
  Alcotest.(check int) "empty report" 0 (List.length r.T.counters);
  Alcotest.(check int) "no spans" 0 (List.length r.T.spans)

(* ---- zero-cost disabled path ---- *)

let test_zero_sink_overhead () =
  Alcotest.(check bool) "no collector installed" false (T.active ());
  let iters = 100_000 in
  (* warm up: first call may initialize the DLS slot *)
  T.count "warmup";
  let p0 = T.calls_probe () in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    T.count "disabled.counter"
  done;
  let words = Gc.minor_words () -. w0 in
  let probed = T.calls_probe () - p0 in
  Alcotest.(check int) "probe proves the path ran" iters probed;
  (* the disabled path is one atomic incr + a load-and-branch: allow a
     little slack for the loop itself, but nothing per-iteration *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-call allocation (%.0f minor words)" words)
    true
    (words < float_of_int iters /. 10.)

(* ---- engine resource causes are canonical strings ---- *)

let test_bdd_nodes_cause () =
  let w = 24 in
  let m = M.create "node_hog" in
  let m = M.add_output m "OK" 1 in
  let m = M.add_reg m "c" w E.(var "c" +: of_int ~width:w 1) in
  let m =
    M.add_assign m "OK" E.(!:(var "c" ==: of_int ~width:w ((1 lsl w) - 1)))
  in
  let budget =
    { Mc.Engine.default_budget with
      Mc.Engine.bdd_node_limit = Some 64; wall_deadline_s = None }
  in
  let o =
    Mc.Engine.check_property ~budget ~strategy:Mc.Engine.Bdd_forward m
      ~assert_:(Psl.Parser.fl_of_string "always OK") ~assumes:[]
  in
  (match o.Mc.Engine.verdict with
   | Mc.Engine.Resource_out "bdd-nodes" -> ()
   | Mc.Engine.Resource_out c -> Alcotest.failf "wrong cause: %s" c
   | _ -> Alcotest.fail "expected Resource_out");
  Alcotest.(check (option string)) "resource_cause accessor"
    (Some "bdd-nodes") (Mc.Engine.resource_cause o)

(* ---- SAT per-solve stats ---- *)

let test_solver_stats_deterministic () =
  (* a small unsatisfiable pigeonhole-ish instance: forces real search *)
  let clauses =
    (* 4 pigeons, 3 holes: var p*3 + h + 1 *)
    let v p h = (p * 3) + h + 1 in
    let at_least = List.init 4 (fun p -> List.init 3 (fun h -> v p h)) in
    let no_share =
      List.concat_map
        (fun h ->
          let pairs = ref [] in
          for p1 = 0 to 3 do
            for p2 = p1 + 1 to 3 do
              pairs := [ -v p1 h; -v p2 h ] :: !pairs
            done
          done;
          !pairs)
        [ 0; 1; 2 ]
    in
    at_least @ no_share
  in
  let r1, s1 = Oneshot.solve ~nvars:12 clauses in
  let r2, s2 = Oneshot.solve ~nvars:12 clauses in
  (match r1 with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "pigeonhole should be unsat");
  Alcotest.(check bool) "same result" true (r1 = r2);
  Alcotest.(check bool) "stats identical across runs" true (s1 = s2);
  Alcotest.(check bool) "search actually happened" true
    (s1.Solver.propagations > 0 && s1.Solver.decisions > 0)

(* ---- sequential counter determinism ---- *)

let non_time_counters (r : T.report) =
  List.filter
    (fun (name, _) ->
      not (String.length name > 3
           && String.sub name (String.length name - 3) 3 = "_us"))
    r.T.counters

let run_recorded ?jobs mini =
  T.start ();
  let t = Core.Campaign.run ?jobs mini in
  let r = T.stop () in
  (t, r)

let test_sequential_counters_deterministic () =
  let mini = mini_chip () in
  let _, r1 = run_recorded mini in
  let _, r2 = run_recorded mini in
  Alcotest.(check (list (pair string int)))
    "non-time counters identical across sequential runs"
    (non_time_counters r1) (non_time_counters r2);
  Alcotest.(check bool) "engine counters present" true
    (T.counter r1 "engine.checks" > 0 && T.counter r1 "cache.miss" > 0)

(* ---- sequential vs pool: schedule-independent aggregates ---- *)

let ints_of (p : Core.Campaign.perf_totals) =
  [ p.Core.Campaign.engine_attempts; p.Core.Campaign.fix_iterations;
    p.Core.Campaign.bdd_peak; p.Core.Campaign.peak_set_size;
    p.Core.Campaign.bdd_polls; p.Core.Campaign.sat_decisions;
    p.Core.Campaign.sat_conflicts; p.Core.Campaign.sat_propagations;
    p.Core.Campaign.sat_restarts; p.Core.Campaign.max_unroll_depth;
    p.Core.Campaign.max_final_k ]

let result_key (r : Core.Campaign.prop_result) =
  Printf.sprintf "%s/%s/%s" r.Core.Campaign.module_name
    r.Core.Campaign.vunit_name r.Core.Campaign.prop_name

let test_seq_vs_pool_aggregates () =
  let mini = mini_chip () in
  let seq, _ = run_recorded ~jobs:1 mini in
  let par, _ = run_recorded ~jobs:4 mini in
  Alcotest.(check (list string)) "same rows in the same order"
    (List.map result_key seq.Core.Campaign.results)
    (List.map result_key par.Core.Campaign.results);
  Alcotest.(check (list int)) "perf aggregates schedule-independent"
    (ints_of (Core.Campaign.aggregate_perf seq))
    (ints_of (Core.Campaign.aggregate_perf par));
  Alcotest.(check (list (pair string int))) "resource-out causes agree"
    (Core.Campaign.resource_out_causes seq)
    (Core.Campaign.resource_out_causes par);
  Alcotest.(check bool) "aggregates are non-trivial" true
    ((Core.Campaign.aggregate_perf seq).Core.Campaign.engine_attempts > 0)

(* ---- trace export parses back and is structurally a Chrome trace ---- *)

let test_trace_export_parses () =
  let mini = mini_chip () in
  let _, r = run_recorded ~jobs:2 mini in
  Alcotest.(check bool) "campaign produced spans" true
    (List.length r.T.spans > 0);
  let s = Obs.Trace_export.to_chrome_string r in
  let j =
    match J.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  in
  let events =
    match Option.bind (J.member "traceEvents" j) J.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "traceEvents missing"
  in
  let ph e = Option.bind (J.member "ph" e) J.to_str in
  let xs = List.filter (fun e -> ph e = Some "X") events in
  let ms = List.filter (fun e -> ph e = Some "M") events in
  Alcotest.(check int) "one X event per span" (List.length r.T.spans)
    (List.length xs);
  let tid_of e = Option.bind (J.member "tid" e) J.to_int in
  List.iter
    (fun e ->
      let has f = J.member f e <> None in
      Alcotest.(check bool) "X event is complete" true
        (has "name" && has "cat" && has "ts" && has "dur" && tid_of e <> None
         && Option.bind (J.member "pid" e) J.to_int = Some 1))
    xs;
  (* every lane used by an X event is named by an M metadata event *)
  let named_tids = List.filter_map tid_of ms in
  List.iter
    (fun e ->
      match tid_of e with
      | Some tid ->
        Alcotest.(check bool) "lane has a thread_name" true
          (List.mem tid named_tids)
      | None -> ())
    xs;
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "M events are thread_name"
        (Some "thread_name")
        (Option.bind (J.member "name" e) J.to_str))
    ms

(* ---- metrics JSON parses back with the documented schema ---- *)

let test_metrics_json_parses () =
  let mini = mini_chip () in
  let t, r = run_recorded ~jobs:2 mini in
  let s = Core.Campaign.to_metrics_json ~report:r ~jobs:2 t in
  let j =
    match J.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  in
  let str_at path =
    Option.bind (J.member path j) J.to_str
  in
  Alcotest.(check (option string)) "schema tag"
    (Some "dicheck-metrics-v1") (str_at "schema");
  let int_at obj f = Option.bind (J.member f obj) J.to_int in
  (match J.member "totals" j with
   | Some totals ->
     Alcotest.(check (option int)) "totals.total"
       (Some (List.length t.Core.Campaign.results))
       (int_at totals "total")
   | None -> Alcotest.fail "totals missing");
  (match Option.bind (J.member "perf" j) (J.member "engine_attempts") with
   | Some a ->
     Alcotest.(check (option int)) "perf.engine_attempts"
       (Some (Core.Campaign.aggregate_perf t).Core.Campaign.engine_attempts)
       (J.to_int a)
   | None -> Alcotest.fail "perf.engine_attempts missing");
  (match J.member "counters" j with
   | Some (J.Obj _) -> ()
   | _ -> Alcotest.fail "counters missing though a report was supplied")

(* ---- JSON string escaping over arbitrary bytes ---- *)

let string_roundtrips s =
  match J.parse (J.to_string (J.String s)) with
  | Ok (J.String s') -> s' = s
  | Ok _ | Error _ -> false

let qcheck_json_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"any string round-trips as JSON"
    QCheck.(string_gen (Gen.char_range '\000' '\255'))
    string_roundtrips

(* every finite float prints in digits that parse back to the same float
   (an integral one may come back as an [Int]) *)
let qcheck_json_float_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"any finite float round-trips exactly"
    QCheck.(
      oneof
        [ float; pos_float; float_range 0.0 10.0; float_range (-1e-300) 1e-300;
          map Int64.float_of_bits int64 ])
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match J.parse (J.to_string (J.Float f)) with
      | Ok v -> J.to_float v = Some f
      | Error _ -> false)

let test_json_all_bytes () =
  (* every byte value, including the control chars 0x00-0x1f whose escaping
     once only covered \n, \t etc. *)
  let all = String.init 256 Char.chr in
  Alcotest.(check bool) "all 256 bytes round-trip" true
    (string_roundtrips all);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S round-trips" s)
        true (string_roundtrips s))
    [ "\x00"; "\x01\x02\x03"; "\x1f"; "\x7f"; "a\x00b"; "\r\n\t\b\x0c";
      "\xc3\xa9 caf\xc3\xa9" ]

(* ---- flight recorder ---- *)

let test_flight_wraparound () =
  T.recorder_start ~capacity:8 ();
  for i = 0 to 19 do
    T.event "tick" ~detail:(string_of_int i)
  done;
  let evs = T.events () in
  let dropped = T.dropped () in
  T.recorder_stop ();
  Alcotest.(check int) "ring keeps exactly capacity" 8 (List.length evs);
  Alcotest.(check int) "12 events overwritten" 12 dropped;
  Alcotest.(check (list int)) "survivors are the newest, in order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : T.event) -> e.T.seq) evs);
  List.iter
    (fun (e : T.event) ->
      Alcotest.(check string) "detail matches seq"
        (string_of_int e.T.seq) e.T.detail;
      Alcotest.(check string) "kind preserved" "tick" e.T.kind)
    evs

let test_flight_merge_ordering () =
  T.recorder_start ~capacity:64 ();
  T.event "main" ~detail:"0";
  let worker tag =
    Domain.spawn (fun () ->
        for i = 0 to 9 do
          T.event tag ~detail:(string_of_int i)
        done;
        (Domain.self () :> int))
  in
  let d1 = worker "w1" and d2 = worker "w2" in
  let ids = [ (Domain.self () :> int); Domain.join d1; Domain.join d2 ] in
  T.event "main" ~detail:"1";
  let evs = T.events () in
  T.recorder_stop ();
  Alcotest.(check int) "all events survive" 22 (List.length evs);
  Alcotest.(check int) "nothing dropped" 0 (T.dropped ());
  (* global order is (t_s, lane, seq): within each lane, recording order *)
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun (e : T.event) ->
      let prev =
        Option.value ~default:(-1) (Hashtbl.find_opt lanes e.T.lane)
      in
      Alcotest.(check bool) "per-lane seqs strictly increase" true
        (e.T.seq > prev);
      Hashtbl.replace lanes e.T.lane e.T.seq)
    evs;
  Alcotest.(check (list int)) "one lane per domain, named by its id"
    (List.sort compare ids)
    (List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) lanes []));
  let sorted = List.sort compare (List.map (fun e -> e.T.t_s) evs) in
  Alcotest.(check (list (float 0.))) "merged view is time-sorted"
    sorted (List.map (fun e -> e.T.t_s) evs)

let test_flight_disabled_overhead () =
  T.recorder_stop ();
  Alcotest.(check bool) "no recorder installed" false (T.recording ());
  let iters = 100_000 in
  T.event "warmup";
  let p0 = T.calls_probe () in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    T.event "disabled.event"
  done;
  let words = Gc.minor_words () -. w0 in
  let probed = T.calls_probe () - p0 in
  Alcotest.(check int) "probe proves the path ran" iters probed;
  Alcotest.(check bool)
    (Printf.sprintf "no per-call allocation (%.0f minor words)" words)
    true
    (words < float_of_int iters /. 10.)

let test_flight_dump_schema () =
  T.recorder_start ~capacity:4 ();
  T.begin_obligation ~ob:"alu0.p2_parity" ~key:"k0" ~engine:"auto"
    ~attempt:1;
  T.event "a" ~detail:"x";
  T.end_obligation ();
  T.event "b";
  let j = T.flight_json ~reason:"unit-test" () in
  T.recorder_stop ();
  let str k = Option.bind (J.member k j) J.to_str in
  Alcotest.(check (option string)) "schema" (Some "dicheck-flight-v2")
    (str "schema");
  Alcotest.(check (option string)) "reason" (Some "unit-test")
    (str "reason");
  let field k e = Option.bind (J.member k e) J.to_str in
  (match Option.bind (J.member "events" j) J.to_list with
   | Some [ e1; e2 ] ->
     Alcotest.(check (option string)) "kind" (Some "a") (field "kind" e1);
     Alcotest.(check (option string)) "detail" (Some "x") (field "detail" e1);
     Alcotest.(check (option string)) "ob from the lane's cell"
       (Some "alu0.p2_parity") (field "ob" e1);
     Alcotest.(check (option string)) "key from the lane's cell" (Some "k0")
       (field "key" e1);
     Alcotest.(check (option string)) "detail defaults empty" (Some "")
       (field "detail" e2);
     Alcotest.(check (option string)) "an idle lane names no obligation"
       (Some "") (field "ob" e2)
   | Some evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)
   | None -> Alcotest.fail "events missing");
  (* events after disable are free no-ops and the view is empty *)
  T.event "after";
  Alcotest.(check int) "inactive recorder yields no events" 0
    (List.length (T.events ()))

(* ---- histograms ---- *)

let test_histogram_observe_merge () =
  T.start ();
  T.observe "lat_s" 0.5e-6;  (* bucket 0: <= 1e-6 *)
  T.observe "lat_s" 0.005;   (* (1e-3, 1e-2] -> bucket 4 *)
  T.observe "lat_s" 0.005;
  let d =
    Domain.spawn (fun () ->
        T.observe "lat_s" 2.0;     (* (1.0, 10.0] -> bucket 7 *)
        T.observe "lat_s" 1000.0;  (* > 100.0 -> overflow bucket 9 *)
        T.observe "other" 1.0)
  in
  Domain.join d;
  let r = T.stop () in
  (match T.hist r "lat_s" with
   | None -> Alcotest.fail "histogram missing"
   | Some h ->
     Alcotest.(check int) "count merged across domains" 5 h.T.h_count;
     Alcotest.(check (float 1e-9)) "sum" 1002.0100005 h.T.h_sum;
     Alcotest.(check (float 1e-12)) "min" 0.5e-6 h.T.h_min;
     Alcotest.(check (float 0.)) "max" 1000.0 h.T.h_max;
     Alcotest.(check int) "bucket count" (Array.length T.bucket_bounds + 1)
       (Array.length h.T.h_buckets);
     Alcotest.(check (list int)) "log-scale bucket assignment"
       [ 1; 0; 0; 0; 2; 0; 0; 1; 0; 1 ]
       (Array.to_list h.T.h_buckets));
  (match T.hist r "other" with
   | Some h -> Alcotest.(check int) "second histogram separate" 1 h.T.h_count
   | None -> Alcotest.fail "second histogram missing");
  Alcotest.(check (option (pair string string))) "absent histogram" None
    (Option.map (fun _ -> ("", "")) (T.hist r "nope"))

(* ---- profiler ---- *)

module P = Obs.Profile

let mk_span ?(tid = 0) ?(alloc = 0.0) ~cat ~name ts dur =
  { T.name; cat; ts_us = ts; dur_us = dur; alloc_mw = alloc; tid;
    args = [] }

let synthetic_report spans =
  { T.wall_s = 1.0; domains = 2; counters = []; hists = []; spans }

let test_profile_self_time () =
  (* lane 0: obligation [0,100] containing engine/bmc [10,40] and
     engine/ic3 [50,90]; lane 1: an uncovered engine/bmc [0,30] *)
  let spans =
    [ mk_span ~cat:"obligation" ~name:"alu0/p2" ~alloc:50.0 0.0 100.0;
      mk_span ~cat:"engine" ~name:"bmc" 10.0 30.0;
      mk_span ~cat:"engine" ~name:"ic3" 50.0 40.0;
      mk_span ~tid:1 ~cat:"engine" ~name:"bmc" 0.0 30.0 ]
  in
  let p = P.of_report (synthetic_report spans) in
  Alcotest.(check int) "span count" 4 p.P.p_spans;
  Alcotest.(check int) "lane count" 2 p.P.p_lanes;
  Alcotest.(check (float 1e-6)) "wall extent" 100.0 p.P.p_wall_us;
  let entry c =
    match List.find_opt (fun e -> e.P.e_class = c) p.P.p_entries with
    | Some e -> e
    | None -> Alcotest.failf "class %s missing" c
  in
  let ob = entry "obligation" in
  Alcotest.(check (float 1e-6)) "obligation wall includes children" 100.0
    ob.P.e_wall_us;
  Alcotest.(check (float 1e-6)) "obligation self excludes children" 30.0
    ob.P.e_self_us;
  Alcotest.(check (float 1e-6)) "alloc attributed" 50.0 ob.P.e_alloc_mw;
  let bmc = entry "engine/bmc" in
  Alcotest.(check int) "bmc spans aggregated across lanes" 2 bmc.P.e_count;
  Alcotest.(check (float 1e-6)) "bmc self = own wall (no children)" 60.0
    bmc.P.e_self_us;
  Alcotest.(check (float 1e-6)) "ic3 self" 40.0 (entry "engine/ic3").P.e_self_us;
  (* ranking: self time descending; shares sum to 1 *)
  let selfs = List.map (fun e -> e.P.e_self_us) p.P.p_entries in
  Alcotest.(check (list (float 1e-6))) "entries ranked by self time"
    (List.sort (fun a b -> compare b a) selfs) selfs;
  let share_sum =
    List.fold_left (fun a e -> a +. e.P.e_self_share) 0.0 p.P.p_entries
  in
  Alcotest.(check (float 1e-6)) "self shares sum to 1" 1.0 share_sum;
  Alcotest.(check int) "top truncates" 2 (List.length (P.top ~k:2 p))

let test_profile_trace_roundtrip () =
  let mini = mini_chip () in
  let _, r = run_recorded ~jobs:2 mini in
  let direct = P.of_report r in
  let via_trace =
    match P.of_trace_json (J.parse (Obs.Trace_export.to_chrome_string r)
                           |> Result.get_ok) with
    | Ok p -> p
    | Error e -> Alcotest.failf "trace parse: %s" e
  in
  Alcotest.(check int) "same span count" direct.P.p_spans
    via_trace.P.p_spans;
  Alcotest.(check int) "same lane count" direct.P.p_lanes
    via_trace.P.p_lanes;
  (* trace export rounds timestamps, which can swap near-tied rankings:
     compare as name-sorted sets, self times within a microsecond budget *)
  let by_class es =
    List.sort (fun a b -> compare a.P.e_class b.P.e_class) es
  in
  Alcotest.(check (list string)) "same classes"
    (List.map (fun e -> e.P.e_class) (by_class direct.P.p_entries))
    (List.map (fun e -> e.P.e_class) (by_class via_trace.P.p_entries));
  List.iter2
    (fun (a : P.entry) (b : P.entry) ->
      Alcotest.(check int) "same counts" a.P.e_count b.P.e_count;
      Alcotest.(check bool) "self times agree to 10us" true
        (Float.abs (a.P.e_self_us -. b.P.e_self_us) < 10.0))
    (by_class direct.P.p_entries) (by_class via_trace.P.p_entries);
  (* the JSON report carries the schema tag and ranked entries *)
  let j = P.to_json ~k:5 direct in
  Alcotest.(check (option string)) "profile schema"
    (Some "dicheck-profile-v1")
    (Option.bind (J.member "schema" j) J.to_str);
  match Option.bind (J.member "entries" j) J.to_list with
  | Some es ->
    Alcotest.(check bool) "entries truncated to k" true (List.length es <= 5)
  | None -> Alcotest.fail "entries missing"

(* ---- bench diff ---- *)

module BD = Obs.Bench_diff

let bench_json runs =
  J.Obj
    [ ("schema", J.String "dicheck-bench-v1");
      ("runs",
       J.List
         (List.map
            (fun (label, wall, proved, failed) ->
              J.Obj
                [ ("label", J.String label); ("wall_s", J.Float wall);
                  ("properties", J.Int (proved + failed));
                  ("proved", J.Int proved); ("failed", J.Int failed);
                  ("resource_out", J.Int 0); ("errors", J.Int 0) ])
            runs)) ]

let test_bench_diff_pass_and_fail () =
  let base = bench_json [ ("a", 10.0, 90, 10); ("b", 5.0, 40, 2) ] in
  (* same verdicts, wall within 20% *)
  let ok_cur = bench_json [ ("a", 11.5, 90, 10); ("b", 4.0, 40, 2) ] in
  (match BD.diff ~baseline:base ~current:ok_cur () with
   | Error e -> Alcotest.failf "diff failed: %s" e
   | Ok d ->
     Alcotest.(check bool) "clean diff passes" true d.BD.ok;
     Alcotest.(check int) "both runs compared" 2 (List.length d.BD.runs);
     List.iter
       (fun rc -> Alcotest.(check bool) "not regressed" false rc.BD.d_regressed)
       d.BD.runs);
  (* injected >= 20% throughput regression must fail *)
  let slow_cur = bench_json [ ("a", 12.5, 90, 10); ("b", 4.0, 40, 2) ] in
  (match BD.diff ~baseline:base ~current:slow_cur () with
   | Error e -> Alcotest.failf "diff failed: %s" e
   | Ok d ->
     Alcotest.(check bool) "25% slower run fails the diff" false d.BD.ok;
     let a = List.find (fun rc -> rc.BD.d_label = "a") d.BD.runs in
     Alcotest.(check bool) "run a regressed" true a.BD.d_regressed;
     Alcotest.(check (float 1e-9)) "ratio reported" 1.25 a.BD.d_ratio;
     Alcotest.(check bool) "verdicts still ok" true a.BD.d_verdicts_ok);
  (* verdict drift is thresholdless *)
  let wrong_cur = bench_json [ ("a", 10.0, 89, 11); ("b", 5.0, 40, 2) ] in
  (match BD.diff ~baseline:base ~current:wrong_cur () with
   | Error e -> Alcotest.failf "diff failed: %s" e
   | Ok d ->
     Alcotest.(check bool) "verdict drift fails" false d.BD.ok;
     let a = List.find (fun rc -> rc.BD.d_label = "a") d.BD.runs in
     Alcotest.(check bool) "verdicts flagged" false a.BD.d_verdicts_ok);
  (* one-sided labels are reported, not fatal *)
  let partial = bench_json [ ("a", 10.0, 90, 10) ] in
  (match BD.diff ~baseline:base ~current:partial () with
   | Error e -> Alcotest.failf "diff failed: %s" e
   | Ok d ->
     Alcotest.(check bool) "partial run passes" true d.BD.ok;
     Alcotest.(check (list string)) "missing label reported" [ "b" ]
       d.BD.only_base);
  (* max_wall_s ceiling baselines never fail on wall *)
  let ceiling =
    J.Obj
      [ ("schema", J.String "dicheck-bench-baseline-v1");
        ("runs",
         J.List
           [ J.Obj
               [ ("label", J.String "a"); ("max_wall_s", J.Float 900.0);
                 ("proved", J.Int 90); ("failed", J.Int 10) ] ]) ]
  in
  (match BD.diff ~baseline:ceiling ~current:ok_cur () with
   | Error e -> Alcotest.failf "diff failed: %s" e
   | Ok d -> Alcotest.(check bool) "ceiling baseline passes" true d.BD.ok);
  (* no common labels is an error, as is garbage *)
  (match BD.diff ~baseline:base ~current:(bench_json [ ("z", 1.0, 1, 0) ]) ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "disjoint labels must be an error");
  match BD.diff ~baseline:(J.String "nope") ~current:ok_cur () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed baseline must be an error"

(* ---- live status model + socket ---- *)

module S = Core.Status

let test_status_model () =
  let s = S.create ~jobs:4 () in
  S.set_total s 10;
  S.set_phase s "campaign";
  T.begin_obligation ~ob:"alu0.p2_parity" ~key:"k0" ~engine:"auto"
    ~attempt:1;
  let snap = S.snapshot s in
  Alcotest.(check string) "phase" "campaign" snap.S.s_phase;
  Alcotest.(check int) "total" 10 snap.S.s_total;
  Alcotest.(check int) "jobs" 4 snap.S.s_jobs;
  (match snap.S.s_in_flight with
   | [ f ] ->
     Alcotest.(check string) "obligation" "alu0.p2_parity" f.T.f_obligation;
     Alcotest.(check string) "engine" "auto" f.T.f_engine;
     Alcotest.(check int) "attempt" 1 f.T.f_attempt;
     Alcotest.(check int) "lane is the domain id" (Domain.self () :> int)
       f.T.f_lane
   | l -> Alcotest.failf "expected 1 in-flight, got %d" (List.length l));
  T.end_obligation ();
  S.retry s;
  S.finish s ~verdict:`Proved ~cache_hit:false ~raced:false ~healed:false;
  S.finish s ~verdict:`Resource_out ~cache_hit:false ~raced:true ~healed:false;
  S.reclassify s ~to_:`Proved;
  let snap = S.snapshot s in
  Alcotest.(check int) "done" 2 snap.S.s_done;
  Alcotest.(check int) "proved after reclassify" 2 snap.S.s_proved;
  Alcotest.(check int) "resource_out drained" 0 snap.S.s_resource_out;
  Alcotest.(check int) "healed" 1 snap.S.s_healed;
  Alcotest.(check int) "raced" 1 snap.S.s_raced;
  Alcotest.(check int) "retries" 1 snap.S.s_retries;
  Alcotest.(check int) "lane cleared when the obligation ends" 0
    (List.length snap.S.s_in_flight);
  Alcotest.(check bool) "eta projected from fresh completions" true
    (snap.S.s_eta_s <> None);
  let j = S.snapshot_json s in
  Alcotest.(check (option string)) "status schema"
    (Some "dicheck-status-v1")
    (Option.bind (J.member "schema" j) J.to_str);
  Alcotest.(check (option int)) "json done" (Some 2)
    (Option.bind (J.member "done" j) J.to_int)

(* the calling domain's status row: begin resets progress, progress shows
   in the row and its JSON beacon, and the end removes the row *)
let test_lane_cell () =
  let s = S.create () in
  let me = (Domain.self () :> int) in
  let row () =
    List.find_opt
      (fun (f : T.in_flight) -> f.T.f_lane = me)
      (S.snapshot s).S.s_in_flight
  in
  let progress () = Option.bind (row ()) (fun f -> f.T.f_progress) in
  T.progress ~engine:"bmc" ~step:3 ~work:99;
  Alcotest.(check bool) "an idle lane has no row" true (row () = None);
  T.begin_obligation ~ob:"m.p" ~key:"k1" ~engine:"auto" ~attempt:1;
  Alcotest.(check bool) "begin clears earlier progress" true
    (progress () = None);
  T.progress ~engine:"ic3" ~step:7 ~work:42;
  (match progress () with
   | Some p ->
     Alcotest.(check (triple string int int)) "progress shows in the row"
       ("ic3", 7, 42) (p.T.p_engine, p.T.p_step, p.T.p_work)
   | None -> Alcotest.fail "progress missing from the row");
  (match Option.bind (J.member "in_flight" (S.snapshot_json s)) J.to_list with
   | Some rows ->
     let mine =
       List.find
         (fun r -> Option.bind (J.member "lane" r) J.to_int = Some me)
         rows
     in
     Alcotest.(check (option int)) "beacon step in the status JSON" (Some 7)
       (Option.bind (J.member "beacon" mine) (J.member "step")
        |> Fun.flip Option.bind J.to_int)
   | None -> Alcotest.fail "in_flight missing");
  T.begin_obligation ~ob:"m.q" ~key:"k2" ~engine:"auto" ~attempt:2;
  (match row () with
   | Some f ->
     Alcotest.(check (pair string string)) "the new obligation"
       ("m.q", "k2") (f.T.f_obligation, f.T.f_key);
     Alcotest.(check bool) "a new begin resets step and work" true
       (f.T.f_progress = None)
   | None -> Alcotest.fail "row missing after begin");
  T.end_obligation ();
  Alcotest.(check bool) "ending removes the row" true (row () = None);
  (* however a unit of work ends, the executor idles its lane *)
  ignore
    (Core.Executor.map_result (Core.Executor.of_jobs (Some 1))
       (fun () ->
         T.begin_obligation ~ob:"m.r" ~key:"k3" ~engine:"auto" ~attempt:1;
         failwith "crash")
       [| () |]);
  Alcotest.(check bool) "a crashed unit leaves no row" true (row () = None)

(* a pooled campaign under a collector and the recorder: the trace, the
   flight events and the status rows all number a worker by its domain id *)
let test_lanes_agree () =
  let mini = mini_chip () in
  let status = S.create ~jobs:4 () in
  let lock = Mutex.create () and seen = ref [] and held = ref 0 in
  let me () = (Domain.self () :> int) in
  (* the hook runs on the worker, inside the attempt, just before the
     engine: progress reported there must show in that lane's row *)
  let fault_hook ~module_name ~prop_name ~fingerprint ~attempt =
    T.progress ~engine:"probe" ~step:attempt ~work:1;
    let row =
      List.find_opt
        (fun (f : T.in_flight) -> f.T.f_lane = me ())
        (S.snapshot status).S.s_in_flight
    in
    Mutex.protect lock (fun () ->
        seen := (module_name ^ "." ^ prop_name, fingerprint, row) :: !seen)
  in
  T.recorder_start ~capacity:4096 ();
  T.start ();
  (* a completed obligation's lane holds it no longer *)
  let progress (s : S.snapshot) =
    if List.exists (fun (f : T.in_flight) -> f.T.f_lane = me ())
         s.S.s_in_flight
    then incr held
  in
  let t = Core.Campaign.run ~jobs:4 ~status ~fault_hook ~progress mini in
  let r = T.stop () in
  let evs = T.events () in
  T.recorder_stop ();
  let workers =
    List.filter_map
      (fun (sp : T.span) ->
        if sp.T.name = "exec.worker" then Some sp.T.tid else None)
      r.T.spans
  in
  Alcotest.(check bool) "the calling domain is a worker" true
    (List.mem (me ()) workers);
  let span_lane = Hashtbl.create 64 in
  List.iter
    (fun (sp : T.span) ->
      if sp.T.cat = "obligation" && List.mem_assoc "property" sp.T.args then
        Hashtbl.replace span_lane sp.T.name sp.T.tid)
    r.T.spans;
  let dones = List.filter (fun (e : T.event) -> e.T.kind = "ob.done") evs in
  Alcotest.(check int) "one ob.done per row"
    (List.length t.Core.Campaign.results) (List.length dones);
  List.iter
    (fun (e : T.event) ->
      Alcotest.(check bool) "ob.done names its obligation and key" true
        (e.T.ob <> "" && e.T.key <> "");
      Alcotest.(check (option int))
        (e.T.ob ^ ": ob.done lane = obligation span tid")
        (Some e.T.lane) (Hashtbl.find_opt span_lane e.T.ob);
      Alcotest.(check bool) "the lane is a worker's domain id" true
        (List.mem e.T.lane workers))
    dones;
  Alcotest.(check bool) "some engine ran" true (!seen <> []);
  List.iter
    (fun (ob, key, row) ->
      match row with
      | Some f ->
        Alcotest.(check (pair string string)) "the row holds the obligation"
          (ob, key) (f.T.f_obligation, f.T.f_key);
        Alcotest.(check (option (pair string int))) "progress in the row"
          (Some ("probe", f.T.f_attempt))
          (Option.map (fun p -> (p.T.p_engine, p.T.p_step)) f.T.f_progress)
      | None -> Alcotest.failf "%s: no status row during its engine run" ob)
    !seen;
  Alcotest.(check int) "no lane holds a finished obligation" 0 !held;
  Alcotest.(check int) "every row ends with its obligation" 0
    (List.length (S.snapshot status).S.s_in_flight)

let read_socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let buf = Buffer.create 1024 in
      let b = Bytes.create 1024 in
      let rec go () =
        let n = Unix.read fd b 0 (Bytes.length b) in
        if n > 0 then begin
          Buffer.add_subbytes buf b 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let test_status_socket () =
  let path = Filename.temp_file "dicheck-status" ".sock" in
  let s = S.create ~jobs:2 () in
  S.set_total s 7;
  S.set_phase s "campaign";
  let srv = S.serve s ~path in
  Fun.protect
    ~finally:(fun () -> S.shutdown srv)
    (fun () ->
      (* two polls: each connection gets one fresh snapshot *)
      let j1 =
        match J.parse (read_socket path) with
        | Ok j -> j
        | Error e -> Alcotest.failf "snapshot 1 unparseable: %s" e
      in
      Alcotest.(check (option int)) "total served" (Some 7)
        (Option.bind (J.member "total" j1) J.to_int);
      S.finish s ~verdict:`Failed ~cache_hit:false ~raced:false ~healed:false;
      let j2 =
        match J.parse (read_socket path) with
        | Ok j -> j
        | Error e -> Alcotest.failf "snapshot 2 unparseable: %s" e
      in
      Alcotest.(check (option int)) "snapshot is live" (Some 1)
        (Option.bind (J.member "done" j2) J.to_int);
      Alcotest.(check (option int)) "failed tallied" (Some 1)
        (Option.bind (J.member "failed" j2) J.to_int));
  Alcotest.(check bool) "socket unlinked on shutdown" false
    (Sys.file_exists path)

(* ---- campaign under observation: seq = pool, flight determinism ---- *)

let flight_done_events () =
  List.filter_map
    (fun (e : T.event) ->
      match e.T.kind with
      | "ob.done" -> Some (e.T.ob ^ " " ^ e.T.key, e.T.detail)
      | _ -> None)
    (T.events ())

let test_campaign_status_seq_eq_pool () =
  let mini = mini_chip () in
  let observed jobs =
    T.recorder_start ~capacity:4096 ();
    let status = S.create ~jobs () in
    let t = Core.Campaign.run ~jobs ~status mini in
    let evs = List.sort compare (flight_done_events ()) in
    T.recorder_stop ();
    (t, S.snapshot status, evs)
  in
  let t1, s1, f1 = observed 1 in
  let t2, s2, f2 = observed 4 in
  Alcotest.(check (list string)) "verdict rows identical seq vs pool"
    (List.map
       (fun (r : Core.Campaign.prop_result) ->
         result_key r ^ "="
         ^ (match r.Core.Campaign.outcome.Mc.Engine.verdict with
            | Mc.Engine.Proved -> "proved"
            | Mc.Engine.Proved_bounded k -> "bounded:" ^ string_of_int k
            | Mc.Engine.Failed _ -> "failed"
            | Mc.Engine.Resource_out c -> "ro:" ^ c
            | Mc.Engine.Error _ -> "error"))
       t1.Core.Campaign.results)
    (List.map
       (fun (r : Core.Campaign.prop_result) ->
         result_key r ^ "="
         ^ (match r.Core.Campaign.outcome.Mc.Engine.verdict with
            | Mc.Engine.Proved -> "proved"
            | Mc.Engine.Proved_bounded k -> "bounded:" ^ string_of_int k
            | Mc.Engine.Failed _ -> "failed"
            | Mc.Engine.Resource_out c -> "ro:" ^ c
            | Mc.Engine.Error _ -> "error"))
       t2.Core.Campaign.results);
  Alcotest.(check string) "both models end in phase done" s1.S.s_phase
    s2.S.s_phase;
  Alcotest.(check int) "same done count" s1.S.s_done s2.S.s_done;
  Alcotest.(check int) "same verdict tallies" s1.S.s_proved s2.S.s_proved;
  Alcotest.(check int) "same failed tallies" s1.S.s_failed s2.S.s_failed;
  Alcotest.(check bool) "flight saw every obligation" true
    (List.length f1 = List.length t1.Core.Campaign.results);
  (* ob.done events are schedule-independent as a set: the pool may
     double-miss the cache, but verdict + attribution per obligation agree *)
  Alcotest.(check (list (pair string string)))
    "flight ob.done event sets identical seq vs pool" f1 f2

(* progress is a view of the status model: under a pool the callback still
   sees every completion count once, in order *)
let test_campaign_progress_pool () =
  let mini = mini_chip () in
  let seen = ref [] in
  let progress (s : S.snapshot) = seen := s :: !seen in
  let t = Core.Campaign.run ~jobs:4 ~progress mini in
  let total = List.length t.Core.Campaign.results in
  Alcotest.(check (list int)) "s_done counts 1 .. total in order"
    (List.init total (fun i -> i + 1))
    (List.rev_map (fun s -> s.S.s_done) !seen);
  Alcotest.(check bool) "s_total is the obligation count" true
    (List.for_all (fun s -> s.S.s_total = total) !seen)

let () =
  Alcotest.run "obs"
    [ ("json",
       [ Alcotest.test_case "print/parse round-trip" `Quick
           test_json_roundtrip;
         Alcotest.test_case "parser rejects invalid input" `Quick
           test_json_parse_errors;
         QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip;
         QCheck_alcotest.to_alcotest qcheck_json_float_roundtrip;
         Alcotest.test_case "control chars and all bytes escape" `Quick
           test_json_all_bytes ]);
      ("telemetry",
       [ Alcotest.test_case "collector merges counters and spans" `Quick
           test_collector_merge;
         Alcotest.test_case "stop without start is empty" `Quick
           test_stop_without_start;
         Alcotest.test_case "disabled path allocates nothing" `Quick
           test_zero_sink_overhead;
         Alcotest.test_case "histograms observe and merge" `Quick
           test_histogram_observe_merge ]);
      ("flight",
       [ Alcotest.test_case "ring wraparound keeps the newest" `Quick
           test_flight_wraparound;
         Alcotest.test_case "per-domain rings merge in order" `Quick
           test_flight_merge_ordering;
         Alcotest.test_case "disabled path allocates nothing" `Quick
           test_flight_disabled_overhead;
         Alcotest.test_case "dump carries the v2 schema" `Quick
           test_flight_dump_schema ]);
      ("profile",
       [ Alcotest.test_case "self time and ranking on synthetic spans"
           `Quick test_profile_self_time;
         Alcotest.test_case "trace file profiling matches live report"
           `Slow test_profile_trace_roundtrip ]);
      ("bench-diff",
       [ Alcotest.test_case "thresholds, verdict drift, ceilings" `Quick
           test_bench_diff_pass_and_fail ]);
      ("status",
       [ Alcotest.test_case "model counters and in-flight table" `Quick
           test_status_model;
         Alcotest.test_case "socket serves live snapshots" `Quick
           test_status_socket;
         Alcotest.test_case "lane cell: begin resets, end removes" `Quick
           test_lane_cell;
         Alcotest.test_case "pooled campaign: lanes agree" `Slow
           test_lanes_agree;
         Alcotest.test_case "observed campaign: seq = pool" `Slow
           test_campaign_status_seq_eq_pool;
         Alcotest.test_case "progress under a pool counts in order" `Slow
           test_campaign_progress_pool ]);
      ("engine",
       [ Alcotest.test_case "bdd node limit reports canonical cause" `Quick
           test_bdd_nodes_cause;
         Alcotest.test_case "per-solve SAT stats deterministic" `Quick
           test_solver_stats_deterministic ]);
      ("campaign",
       [ Alcotest.test_case "sequential counters deterministic" `Slow
           test_sequential_counters_deterministic;
         Alcotest.test_case "sequential = pool perf aggregates" `Slow
           test_seq_vs_pool_aggregates;
         Alcotest.test_case "trace export parses back" `Slow
           test_trace_export_parses;
         Alcotest.test_case "metrics JSON parses back" `Slow
           test_metrics_json_parses ]) ]
