(* The benchmark's pure helpers: order statistics, the metric-name rule, the
   verdict oracle and the record format. No campaign runs here. *)

module K = Perfkit
module J = Obs.Json

let flt = Alcotest.float 1e-9

let totals properties proved failed resource_out errors =
  { K.properties; proved; failed; resource_out; errors }

let record ?(wall = [ 0.5; 0.4; 0.6 ]) () =
  { K.workload = "campaign"; seed = 42; seconds = 20; traced = false;
    attempted = 3; failed = 0; mismatches = [];
    metrics =
      [ K.metric "wall_s" "s" wall; K.metric "setup_s" "s" [ 0.1; 0.12 ];
        K.metric "peak_rss_mb" "MB" [ 41.6 ] ];
    raw = [ K.metric "raw_wall_s" "s" wall ];
    wall_samples = wall; totals = totals 2047 2033 14 0 0 }

let test_quantiles () =
  Alcotest.check flt "median odd" 2.0 (K.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check flt "median even" 2.5 (K.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check flt "q1" 2.0 (K.quantile [ 1.0; 2.0; 3.0; 4.0; 5.0 ] 0.25);
  Alcotest.check flt "q3 interpolated" 3.25
    (K.quantile [ 1.0; 2.0; 3.0; 4.0 ] 0.75);
  Alcotest.check flt "one sample" 7.0 (K.quantile [ 7.0 ] 0.9);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Perfkit.quantile: no samples") (fun () ->
      ignore (K.quantile [] 0.5))

let test_tail_percentile () =
  let tail = Alcotest.(option int) in
  Alcotest.check tail "39 samples" None (K.tail_percentile 39);
  Alcotest.check tail "40 samples" (Some 750) (K.tail_percentile 40);
  Alcotest.check tail "99 samples" (Some 750) (K.tail_percentile 99);
  (* exactly ten beyond p90: the float product would fall just short *)
  Alcotest.check tail "100 samples" (Some 900) (K.tail_percentile 100);
  Alcotest.check tail "200 samples" (Some 950) (K.tail_percentile 200);
  Alcotest.check tail "10000 samples" (Some 999) (K.tail_percentile 10_000)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (K.valid_name n))
    [ "wall_s"; "prepare.coi.self_s"; "bmc-deep"; "engine.sat_decisions"; "9x" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (K.valid_name n))
    [ ""; "_x"; ".x"; "wall s"; "a/b"; "p95%"; String.make 65 'a' ];
  Alcotest.check_raises "metric rejects a bad name"
    (Invalid_argument "Perfkit.metric: bad name wall s") (fun () ->
      ignore (K.metric "wall s" "s" [ 1.0 ]))

let test_oracle () =
  let expected = totals 2047 2033 14 0 0 in
  let n actual u = List.length (K.oracle ~expected actual ~unexplained_failures:u) in
  Alcotest.(check int) "known answer" 0 (n expected 0);
  Alcotest.(check int) "a flipped verdict" 2 (n (totals 2047 2032 15 0 0) 0);
  Alcotest.(check int) "a resource-out" 2 (n (totals 2047 2032 14 1 0) 0);
  Alcotest.(check int) "a failure with no seeded bug" 1 (n expected 1);
  let baseline =
    J.Obj
      [ ("runs",
         J.List
           [ J.Obj
               [ ("label", J.String "pre-fix"); ("properties", J.Int 2047);
                 ("proved", J.Int 2033); ("failed", J.Int 14);
                 ("resource_out", J.Int 0); ("errors", J.Int 0);
                 ("max_wall_s", J.Float 900.0) ] ]) ]
  in
  Alcotest.(check bool) "baseline row" true
    (K.baseline_row baseline "pre-fix" = Some expected);
  Alcotest.(check bool) "missing row" true
    (K.baseline_row baseline "post-fix" = None)

let test_record_roundtrip () =
  let j = K.record_json (record ()) in
  (match J.parse (J.to_string_pretty j) with
   | Error e -> Alcotest.fail e
   | Ok back ->
     Alcotest.(check string) "round-trip" (J.to_string j) (J.to_string back);
     Alcotest.(check (option flt)) "wall median" (Some 0.5)
       (Option.bind
          (Option.bind (J.member "metrics" back) (J.member "wall_s"))
          (fun m -> Option.bind (J.member "median" m) J.to_float)));
  match J.parse (K.result_line [ record () ]) with
  | Error e -> Alcotest.fail e
  | Ok (J.Obj kv) ->
    Alcotest.(check (list string)) "result line keys"
      [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kv)
  | Ok _ -> Alcotest.fail "result line is not an object"

(* with several workloads the last line still covers all of them, and a
   workload that raised makes it incorrect *)
let test_result_line_all () =
  let crashed =
    K.crashed ~workload:"fuzz" ~seed:42 ~seconds:20 ~traced:false "boom"
  in
  match J.parse (K.result_line [ record (); crashed ]) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let field k = J.member k j in
    Alcotest.(check (option bool)) "correct" (Some false)
      (Option.bind (field "correct") J.to_bool);
    Alcotest.(check (option int)) "attempted" (Some 4)
      (Option.bind (field "attempted") J.to_int);
    Alcotest.(check (option int)) "failed" (Some 1)
      (Option.bind (field "failed") J.to_int);
    Alcotest.(check (option (list string))) "prefixed metric names"
      (Some [ "campaign.wall_s"; "campaign.setup_s"; "campaign.peak_rss_mb" ])
      (Option.map
         (function J.Obj kv -> List.map fst kv | _ -> [])
         (field "metrics"))

let test_bench_diff () =
  let baseline = K.record_json (record ()) in
  let diff wall =
    match
      Obs.Bench_diff.diff ~threshold:0.1 ~baseline
        ~current:(K.record_json (record ~wall ()))
        ()
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let d = diff [ 0.52; 0.5; 0.51 ] in
  Alcotest.(check int) "one common run" 1 (List.length d.Obs.Bench_diff.runs);
  Alcotest.(check bool) "within threshold" true d.Obs.Bench_diff.ok;
  Alcotest.(check bool) "slower flagged" false
    (diff [ 0.6; 0.6; 0.6 ]).Obs.Bench_diff.ok

let () =
  Alcotest.run "perfbench"
    [ ("helpers",
       [ Alcotest.test_case "quantiles" `Quick test_quantiles;
         Alcotest.test_case "highest percentile with ten beyond" `Quick
           test_tail_percentile;
         Alcotest.test_case "metric-name charset" `Quick test_names;
         Alcotest.test_case "oracle on synthetic totals" `Quick test_oracle;
         Alcotest.test_case "record parses back" `Quick test_record_roundtrip;
         Alcotest.test_case "summary line over several workloads" `Quick
           test_result_line_all;
         Alcotest.test_case "bench diff reads two records" `Quick
           test_bench_diff ]) ]
