(* The self-healing recovery layer: checkpoint-cut hygiene, the
   assume-guarantee / CEGAR loop of Heal.heal_one, concrete replay
   confirmation of real failures, and the campaign-level recovery pass —
   recovery under the starving budget, determinism across backends, and
   resuming from a cache file through healed verdicts. *)

module E = Rtl.Expr
module M = Rtl.Mdl
module A = Psl.Ast
module G = Chip.Generator
module H = Core.Heal

let bv = Bitvec.of_string
let chip = lazy (G.generate ())

(* the starvation point used throughout: monolithic filler cones exhaust
   this BDD arena, their partitioned pieces decide comfortably inside it *)
let starved =
  { Mc.Engine.default_budget with Mc.Engine.bdd_node_limit = Some 2_000 }

let engine_piece ?budget (p : H.piece) =
  Mc.Engine.check_property ?budget ~strategy:Mc.Engine.Bdd_forward p.H.p_mdl
    ~assert_:p.H.p_assert ~assumes:p.H.p_assumes

(* a parity-protected register frozen at its odd-parity reset word, tapped
   by a checkpoint wire — the smallest healable cone *)
let checkpoint_module () =
  let m = M.create "healm" in
  let m =
    M.add_reg ~cls:M.Counter ~parity_protected:true ~reset:(bv "1000") m "c_q"
      4 (E.var "c_q")
  in
  let m = M.add_wire m "c_chk" 4 in
  M.add_assign m "c_chk" (E.var "c_q")

(* two independent protected registers, each tapped by a checkpoint wire *)
let two_cut_module () =
  let m = M.create "healc" in
  let m =
    M.add_reg ~cls:M.Fsm ~parity_protected:true ~reset:(bv "10") m "a_q" 2
      (E.var "a_q")
  in
  let m =
    M.add_reg ~cls:M.Fsm ~parity_protected:true ~reset:(bv "10") m "b_q" 2
      (E.var "b_q")
  in
  let m = M.add_wire m "a_c" 2 in
  let m = M.add_assign m "a_c" (E.var "a_q") in
  let m = M.add_wire m "b_c" 2 in
  M.add_assign m "b_c" (E.var "b_q")

(* ---- Heal.heal_one unit behavior ---- *)

let test_heal_confirms_real_failure () =
  (* the property is genuinely false on the concrete machine (the payload
     is stuck at zero): the freed-cut counterexample must replay concretely
     and come back as a real [Failed] carrying the concrete trace *)
  let m = checkpoint_module () in
  let payload = E.slice (E.var "c_chk") ~hi:2 ~lo:0 in
  let assert_ = A.Always (A.Bool E.(payload <>: of_int ~width:3 0)) in
  let r =
    H.heal_one ~max_iters:4 ~run_piece:(engine_piece ?budget:None) ~mdl:m
      ~assert_ ~assumes:[] ()
  in
  Alcotest.(check int) "the tap's parity sub-proof succeeds" 1 r.H.h_subs_proved;
  Alcotest.(check int) "no spurious counterexamples" 0 r.H.h_spurious;
  match r.H.h_outcome with
  | Some ({ Mc.Engine.verdict = Mc.Engine.Failed trace; _ } as o) ->
    Alcotest.(check string) "attributed to the healer" H.engine_name
      o.Mc.Engine.engine_used;
    Alcotest.(check bool) "concrete trace attached" true
      (Mc.Trace.length trace > 0);
    (* the trace is the concrete machine's, not the abstraction's: the
       checkpointed register carries its actual odd-parity reset word *)
    let first = List.hd trace in
    (match List.assoc_opt "c_q" first.Mc.Trace.state with
     | Some v -> Alcotest.(check bool) "c_q holds its reset word" true
                   (Bitvec.equal v (bv "1000"))
     | None -> Alcotest.fail "concrete trace does not record c_q")
  | Some o ->
    Alcotest.failf "expected a confirmed failure, got %s"
      (match o.Mc.Engine.verdict with
       | Mc.Engine.Proved -> "proved"
       | Mc.Engine.Proved_bounded _ -> "bounded"
       | Mc.Engine.Resource_out c -> "resource-out " ^ c
       | Mc.Engine.Error e -> "error " ^ e
       | Mc.Engine.Failed _ -> assert false)
  | None -> Alcotest.fail "healer found no cuts"

let test_heal_cegar_refines_spurious () =
  (* force cut [a_c] to stay unguaranteed (its parity sub-proof is starved
     out): the first freed-cut check then fails on an even-parity value the
     concrete machine never produces, the replay refutes it, CEGAR un-frees
     the blamed cut, and the second check proves the property *)
  let m = two_cut_module () in
  let assert_ = A.Always (A.Bool (E.red_xor (E.var "a_c"))) in
  let run_piece (p : H.piece) =
    if String.equal p.H.p_salt "heal-sub:a_c" then
      { Mc.Engine.verdict = Mc.Engine.Resource_out Mc.Engine.ro_bdd_nodes;
        engine_used = "test-starve"; time_s = 0.0; iterations = 0;
        work_nodes = 0; perf = Mc.Engine.empty_perf }
    else engine_piece p
  in
  let r =
    H.heal_one
      ~mine:(fun _ ~roots:_ -> [ "a_c"; "b_c" ])
      ~max_iters:4 ~run_piece ~mdl:m ~assert_ ~assumes:[] ()
  in
  Alcotest.(check int) "only b_c guaranteed" 1 r.H.h_subs_proved;
  Alcotest.(check int) "one spurious counterexample" 1 r.H.h_spurious;
  Alcotest.(check int) "two final checks: CEGAR refined once" 2 r.H.h_finals;
  match r.H.h_outcome with
  | Some { Mc.Engine.verdict = Mc.Engine.Proved; engine_used; _ } ->
    Alcotest.(check string) "healer attribution" H.engine_name engine_used
  | _ -> Alcotest.fail "expected a healed proof after refinement"

let test_heal_skips_bad_cuts () =
  (* satellite regression: mined candidates that cannot be freed (unknown
     names, ports) are skipped and counted — never a crash — and the
     healing proceeds on the surviving cut *)
  let m = two_cut_module () in
  let m = M.add_output m "O" 2 in
  let m = M.add_assign m "O" (E.var "a_q") in
  let assert_ = A.Always (A.Bool (E.red_xor (E.var "a_c"))) in
  let r =
    H.heal_one
      ~mine:(fun _ ~roots:_ -> [ "no_such_signal"; "O"; "a_c" ])
      ~max_iters:4 ~run_piece:(engine_piece ?budget:None) ~mdl:m ~assert_
      ~assumes:[] ()
  in
  Alcotest.(check int) "two bad candidates skipped" 2 r.H.h_bad_cuts;
  (match r.H.h_outcome with
   | Some { Mc.Engine.verdict = Mc.Engine.Proved; _ } -> ()
   | _ -> Alcotest.fail "surviving cut should heal to a proof");
  (* a cone with nothing freeable is unhealable, not an error *)
  let r2 =
    H.heal_one
      ~mine:(fun _ ~roots:_ -> [ "nope" ])
      ~max_iters:4 ~run_piece:(engine_piece ?budget:None) ~mdl:m ~assert_
      ~assumes:[] ()
  in
  Alcotest.(check int) "bad candidate counted" 1 r2.H.h_bad_cuts;
  (match r2.H.h_outcome with
   | None -> ()
   | Some _ -> Alcotest.fail "all-bad mining must leave the verdict alone");
  Alcotest.(check int) "no pieces ran" 0 r2.H.h_pieces

let test_heal_exhausts_honestly () =
  (* a single cut whose spurious counterexample un-frees it leaves nothing
     freed: the healer must report heal-exhausted, not loop or lie *)
  let m = two_cut_module () in
  let assert_ = A.Always (A.Bool (E.red_xor (E.var "a_c"))) in
  let run_piece (p : H.piece) =
    if String.equal p.H.p_salt "heal-sub:a_c" then
      { Mc.Engine.verdict = Mc.Engine.Resource_out Mc.Engine.ro_bdd_nodes;
        engine_used = "test-starve"; time_s = 0.0; iterations = 0;
        work_nodes = 0; perf = Mc.Engine.empty_perf }
    else engine_piece p
  in
  let r =
    H.heal_one
      ~mine:(fun _ ~roots:_ -> [ "a_c" ])
      ~max_iters:4 ~run_piece ~mdl:m ~assert_ ~assumes:[] ()
  in
  Alcotest.(check int) "one spurious counterexample" 1 r.H.h_spurious;
  match r.H.h_outcome with
  | Some { Mc.Engine.verdict = Mc.Engine.Resource_out cause; _ } ->
    Alcotest.(check string) "canonical heal-exhausted cause"
      Mc.Engine.ro_heal_exhausted cause
  | _ -> Alcotest.fail "expected heal-exhausted"

let test_heal_beats_starved_budget () =
  (* the seeded-chip case: a filler's monolithic properties exhaust the
     2000-node budget, yet healing proves most of them under the very same
     budget — Figure 7's point, automated *)
  let t = Lazy.force chip in
  let cat_a =
    List.find (fun (c : G.category) -> c.G.cat_name = "A") t.G.categories
  in
  let u =
    List.find (fun (u : G.unit_) -> u.G.leaf.Chip.Archetype.bug = None)
      cat_a.G.units
  in
  let mdl = u.G.info.Verifiable.Transform.mdl in
  let starved_ro =
    List.concat_map
      (fun (_, vunit) ->
        let assumes = List.map snd (A.assumes vunit) in
        List.filter_map
          (fun (name, assert_) ->
            match
              (Mc.Engine.check_property ~budget:starved
                 ~strategy:Mc.Engine.Bdd_forward mdl ~assert_ ~assumes)
                .Mc.Engine.verdict
            with
            | Mc.Engine.Resource_out _ -> Some (name, assert_, assumes)
            | _ -> None)
          (A.asserts vunit))
      (Verifiable.Propgen.all u.G.info u.G.spec)
  in
  Alcotest.(check bool) "the starved budget exhausts some properties" true
    (List.length starved_ro > 0);
  let healed =
    List.filter
      (fun (name, assert_, assumes) ->
        let r =
          H.heal_one ~max_iters:4
            ~run_piece:(engine_piece ~budget:starved)
            ~mdl ~assert_ ~assumes ()
        in
        match r.H.h_outcome with
        | Some { Mc.Engine.verdict = Mc.Engine.Proved; _ } -> true
        | Some { Mc.Engine.verdict = Mc.Engine.Failed _; _ } ->
          Alcotest.failf "%s healed to a failure on a clean module" name
        | _ -> false)
      starved_ro
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least half the starved properties heal (%d of %d)"
       (List.length healed) (List.length starved_ro))
    true
    (2 * List.length healed >= List.length starved_ro)

(* ---- the campaign-level recovery pass ---- *)

(* one bug-free category-A filler: enough to starve, quick to run *)
let heal_chip () =
  let t = Lazy.force chip in
  let cat_a =
    List.find (fun (c : G.category) -> c.G.cat_name = "A") t.G.categories
  in
  let filler =
    List.find (fun (u : G.unit_) -> u.G.leaf.Chip.Archetype.bug = None)
      cat_a.G.units
  in
  { t with
    G.categories =
      [ { cat_a with G.units = [ filler ];
          G.expected = { cat_a.G.expected with G.sub = 1 } } ] }

(* everything a verdict row asserts, minus schedule-dependent measures *)
let result_key (r : Core.Campaign.prop_result) =
  let verdict =
    match r.Core.Campaign.outcome.Mc.Engine.verdict with
    | Mc.Engine.Proved -> "proved"
    | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
    | Mc.Engine.Failed _ -> "failed"
    | Mc.Engine.Resource_out m -> "resource:" ^ m
    | Mc.Engine.Error m -> "error:" ^ m
  in
  Printf.sprintf "%s/%s/%s/%s/%s/%b" r.Core.Campaign.module_name
    r.Core.Campaign.vunit_name r.Core.Campaign.prop_name verdict
    r.Core.Campaign.outcome.Mc.Engine.engine_used r.Core.Campaign.healed

let run_heal_chip ?jobs ?cache ?self_heal () =
  Core.Campaign.run ~budget:starved ~strategy:Mc.Engine.Bdd_forward ?jobs
    ?cache ?self_heal (heal_chip ())

let test_campaign_recovers () =
  let plain = run_heal_chip () in
  let ro0 = plain.Core.Campaign.grand_total.Core.Campaign.resource_out in
  Alcotest.(check bool) "the starved campaign resource-outs" true (ro0 > 0);
  (match plain.Core.Campaign.healing with
   | None -> ()
   | Some _ -> Alcotest.fail "healing block without self_heal");
  let healed = run_heal_chip ~self_heal:4 () in
  let h =
    match healed.Core.Campaign.healing with
    | Some h -> h
    | None -> Alcotest.fail "self_heal run lacks the healing block"
  in
  Alcotest.(check int) "every resource-out was attempted" ro0
    h.Core.Campaign.heal_attempted;
  Alcotest.(check bool)
    (Printf.sprintf "at least half recovered (%d of %d)"
       h.Core.Campaign.heal_recovered h.Core.Campaign.heal_attempted)
    true
    (2 * h.Core.Campaign.heal_recovered >= h.Core.Campaign.heal_attempted);
  Alcotest.(check int) "recovered = proved + failed"
    h.Core.Campaign.heal_recovered
    (h.Core.Campaign.heal_proved + h.Core.Campaign.heal_failed);
  Alcotest.(check int) "clean modules heal only to proofs" 0
    h.Core.Campaign.heal_failed;
  Alcotest.(check int) "the RO count drops by exactly the recoveries"
    (ro0 - h.Core.Campaign.heal_recovered)
    healed.Core.Campaign.grand_total.Core.Campaign.resource_out;
  (* healed rows are flagged, attributed and conclusive *)
  let healed_rows =
    List.filter (fun (r : Core.Campaign.prop_result) -> r.Core.Campaign.healed)
      healed.Core.Campaign.results
  in
  Alcotest.(check int) "healed row flags match the tally"
    h.Core.Campaign.heal_recovered (List.length healed_rows);
  List.iter
    (fun (r : Core.Campaign.prop_result) ->
      Alcotest.(check string)
        (r.Core.Campaign.prop_name ^ " attributed to the healer")
        Core.Heal.engine_name r.Core.Campaign.outcome.Mc.Engine.engine_used;
      Alcotest.(check bool)
        (r.Core.Campaign.prop_name ^ " conclusive")
        true
        (Mc.Engine.conclusive r.Core.Campaign.outcome))
    healed_rows;
  (* what remains resource-out carries the canonical exhaustion cause *)
  List.iter
    (fun (cause, _) ->
      Alcotest.(check string) "canonical residual cause"
        Mc.Engine.ro_heal_exhausted cause)
    (Core.Campaign.resource_out_causes healed);
  (* zero verdict flips against the unstarved baseline *)
  let baseline =
    Core.Campaign.run ~strategy:Mc.Engine.Bdd_forward (heal_chip ())
  in
  List.iter2
    (fun (b : Core.Campaign.prop_result) (r : Core.Campaign.prop_result) ->
      match
        ( b.Core.Campaign.outcome.Mc.Engine.verdict,
          r.Core.Campaign.outcome.Mc.Engine.verdict )
      with
      | (Mc.Engine.Proved | Mc.Engine.Proved_bounded _), Mc.Engine.Failed _
      | Mc.Engine.Failed _, (Mc.Engine.Proved | Mc.Engine.Proved_bounded _) ->
        Alcotest.failf "%s: healing flipped the verdict"
          r.Core.Campaign.prop_name
      | _ -> ())
    baseline.Core.Campaign.results healed.Core.Campaign.results;
  (* the recovery block and the healed column reach the reports *)
  let json = Core.Campaign.to_metrics_json healed in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      i + n <= h && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "metrics carry the recovery block" true
    (contains "\"recovery\"" json);
  Alcotest.(check bool) "metrics count healed rows" true
    (contains "\"healed_rows\"" json);
  (match String.split_on_char '\n' (Core.Campaign.to_csv healed) with
   | header :: _ ->
     Alcotest.(check bool) "csv has healed column" true
       (List.mem "healed" (String.split_on_char ',' header))
   | [] -> Alcotest.fail "empty csv")

let test_campaign_seq_matches_pool () =
  (* byte-identical healing on one job and on four: verdicts, attribution,
     healed flags, the recovery totals and the cache misses, the healing
     pieces' included, since a piece's key is claimed like an obligation's
     and so solved once *)
  let run jobs =
    let cache = Mc.Cache.create () in
    let t = run_heal_chip ~jobs ~cache ~self_heal:4 () in
    (t, Mc.Cache.misses cache)
  in
  let seq, seq_misses = run 1 in
  let pool, pool_misses = run 4 in
  Alcotest.(check int) "same cache misses" seq_misses pool_misses;
  Alcotest.(check (list string)) "same healed verdicts in the same order"
    (List.map result_key seq.Core.Campaign.results)
    (List.map result_key pool.Core.Campaign.results);
  let totals (t : Core.Campaign.t) =
    match t.Core.Campaign.healing with
    | None -> Alcotest.fail "missing healing block"
    | Some h ->
      [ ("attempted", h.Core.Campaign.heal_attempted);
        ("recovered", h.Core.Campaign.heal_recovered);
        ("proved", h.Core.Campaign.heal_proved);
        ("failed", h.Core.Campaign.heal_failed);
        ("exhausted", h.Core.Campaign.heal_exhausted);
        ("unhealable", h.Core.Campaign.heal_unhealable);
        ("spurious", h.Core.Campaign.heal_spurious);
        ("cegar_iters", h.Core.Campaign.heal_cegar_iters);
        ("subs_proved", h.Core.Campaign.heal_subs_proved);
        ("bad_cuts", h.Core.Campaign.heal_bad_cuts);
        ("pieces", h.Core.Campaign.heal_pieces) ]
  in
  Alcotest.(check (list (pair string int))) "same recovery totals"
    (totals seq) (totals pool)

let test_campaign_counts_rows () =
  (* the healing pieces' own cache hits are not obligations: the summary
     counts the rows flagged cache_hit, so "proved fresh" stays >= 0 *)
  let t = run_heal_chip ~self_heal:4 () in
  let flagged =
    List.length
      (List.filter
         (fun (r : Core.Campaign.prop_result) -> r.Core.Campaign.cache_hit)
         t.Core.Campaign.results)
  in
  Alcotest.(check int) "cache_hits counts the cache_hit rows" flagged
    t.Core.Campaign.cache_hits;
  Alcotest.(check bool) "no negative fresh count" true
    (List.length t.Core.Campaign.results - t.Core.Campaign.cache_hits >= 0)

let test_campaign_resume_replays_healing () =
  (* a campaign rerun on the first one's cache file must get the healed
     verdicts from it — healed flags intact — without one fresh engine run *)
  let path = Filename.temp_file "dicheck_heal" ".cache" in
  let c1 = Mc.Cache.open_file path in
  let first = run_heal_chip ~self_heal:4 ~cache:c1 () in
  Mc.Cache.close c1;
  let cache = Mc.Cache.open_file path in
  let resumed = run_heal_chip ~self_heal:4 ~cache () in
  Mc.Cache.close cache;
  Sys.remove path;
  Alcotest.(check int) "no fresh engine work on resume" 0
    (Mc.Cache.misses cache);
  Alcotest.(check int) "every row a cache hit"
    (List.length resumed.Core.Campaign.results)
    resumed.Core.Campaign.cache_hits;
  Alcotest.(check (list string)) "identical rows after resume"
    (List.map result_key first.Core.Campaign.results)
    (List.map result_key resumed.Core.Campaign.results);
  (* the healed rows came back from disk, not from re-proving *)
  let flags (t : Core.Campaign.t) =
    List.length
      (List.filter
         (fun (r : Core.Campaign.prop_result) -> r.Core.Campaign.healed)
         t.Core.Campaign.results)
  in
  Alcotest.(check bool) "healed rows present" true (flags first > 0);
  Alcotest.(check int) "healed flags survive the resume" (flags first)
    (flags resumed);
  (* residual exhausted rows are re-attempted from cached pieces only *)
  match resumed.Core.Campaign.healing with
  | None -> Alcotest.fail "resumed run lacks the healing block"
  | Some h ->
    Alcotest.(check int) "resume recovers nothing new" 0
      h.Core.Campaign.heal_recovered

(* each row's cache key, in row order *)
let row_keys chip =
  List.map
    (fun (w : Core.Campaign.work) ->
      Mc.Obligation.fingerprint
        (Mc.Obligation.prepare ~budget:starved ~strategy:Mc.Engine.Bdd_forward
           w.Core.Campaign.w_mdl ~assert_:w.Core.Campaign.w_assert
           ~assumes:w.Core.Campaign.w_assumes ~meta:()))
    (Core.Campaign.work_items chip)

let test_campaign_heals_once_per_key () =
  let chip = Twins.chip (Lazy.force chip) in
  let keys = row_keys chip in
  let plain =
    Core.Campaign.run ~budget:starved ~strategy:Mc.Engine.Bdd_forward chip
  in
  let ro_keys =
    List.filter_map
      (fun ((r : Core.Campaign.prop_result), key) ->
        match r.Core.Campaign.outcome.Mc.Engine.verdict with
        | Mc.Engine.Resource_out _ -> Some key
        | _ -> None)
      (List.combine plain.Core.Campaign.results keys)
  in
  let distinct = List.length (List.sort_uniq compare ro_keys) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer distinct keys (%d) than resource-out rows (%d)"
       distinct (List.length ro_keys))
    true
    (distinct > 0 && distinct < List.length ro_keys);
  Obs.Telemetry.start ();
  let healed =
    Core.Campaign.run ~budget:starved ~strategy:Mc.Engine.Bdd_forward ~jobs:2
      ~self_heal:4 chip
  in
  let report = Obs.Telemetry.stop () in
  let heals =
    List.filter
      (fun (s : Obs.Telemetry.span) ->
        String.starts_with ~prefix:"heal:" s.Obs.Telemetry.name)
      report.Obs.Telemetry.spans
  in
  Alcotest.(check int) "one heal per distinct resource-out key" distinct
    (List.length heals);
  (match healed.Core.Campaign.healing with
   | Some h ->
     Alcotest.(check int) "every resource-out row is attempted"
       (List.length ro_keys) h.Core.Campaign.heal_attempted
   | None -> Alcotest.fail "self_heal run lacks the healing block");
  (* rows sharing a key share its verdict and healed flag *)
  let by_key = Hashtbl.create 64 in
  List.iter2
    (fun (r : Core.Campaign.prop_result) key ->
      let v =
        ( (match r.Core.Campaign.outcome.Mc.Engine.verdict with
           | Mc.Engine.Proved -> "proved"
           | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
           | Mc.Engine.Failed _ -> "failed"
           | Mc.Engine.Resource_out m -> "resource:" ^ m
           | Mc.Engine.Error m -> "error:" ^ m),
          r.Core.Campaign.healed )
      in
      match Hashtbl.find_opt by_key key with
      | Some v0 ->
        Alcotest.(check (pair string bool))
          (r.Core.Campaign.module_name ^ "." ^ r.Core.Campaign.prop_name
          ^ " agrees with its twin")
          v0 v
      | None -> Hashtbl.add by_key key v)
    healed.Core.Campaign.results keys

let () =
  Alcotest.run "heal"
    [ ("heal_one",
       [ Alcotest.test_case "confirms real failures concretely" `Quick
           test_heal_confirms_real_failure;
         Alcotest.test_case "CEGAR refines a spurious counterexample" `Quick
           test_heal_cegar_refines_spurious;
         Alcotest.test_case "bad mined cuts are skipped, never fatal" `Quick
           test_heal_skips_bad_cuts;
         Alcotest.test_case "exhausts honestly" `Quick
           test_heal_exhausts_honestly;
         Alcotest.test_case "partitioning beats the starved budget" `Slow
           test_heal_beats_starved_budget ]);
      ("campaign",
       [ Alcotest.test_case "recovers starved obligations" `Slow
           test_campaign_recovers;
         Alcotest.test_case "sequential matches pool" `Slow
           test_campaign_seq_matches_pool;
         Alcotest.test_case "cache hits count rows, not lookups" `Slow
           test_campaign_counts_rows;
         Alcotest.test_case "resume replays healing" `Slow
           test_campaign_resume_replays_healing;
         Alcotest.test_case "heals once per resource-out key" `Slow
           test_campaign_heals_once_per_key ]) ]
