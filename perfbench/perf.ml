(* Performance benchmark of the verification pipeline.

     dune exec perfbench/perf.exe -- --seed 42
     dune exec perfbench/perf.exe -- --workload campaign --seed 7 \
       --seconds 20 --trace 0

   Each workload is a closed loop with one client at jobs = 1: the next
   unit starts when the previous one has finished and its outputs have
   been checked against the known answer. With --trace 0 the run reports
   the end-to-end metrics of untraced units; with --trace 1 it alternates
   untraced units with a traced drive of the same work, in which this file
   times its own calls into each layer's public functions, and reports the
   per-layer metrics. Run from the repository root: the oracle reads
   BENCH_baseline.json and results go to perfbench/results/. The last line
   of standard output is a one-line JSON summary of every workload run; the
   exit code is non-zero when any output check fails. *)

module C = Core.Campaign
module E = Mc.Engine
module T = Obs.Telemetry
module K = Perfkit

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let results_dir = Filename.concat "perfbench" "results"
let result_path name = Filename.concat results_dir name

(* ---- outputs of one unit and their check ---- *)

type check = {
  totals : K.totals;
  mismatches : string list;
  digest : string;
      (** of one line per output (the verdict and engine of every
          obligation, or engine run); the traced drive must reproduce it *)
}

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let verdict_name (o : E.outcome) =
  match o.E.verdict with
  | E.Proved | E.Proved_bounded _ -> "proved"
  | E.Failed _ -> "failed"
  | E.Resource_out _ -> "resource_out"
  | E.Error _ -> "error"

let tally outcomes =
  List.fold_left
    (fun (t : K.totals) o ->
      let t = { t with K.properties = t.K.properties + 1 } in
      match verdict_name o with
      | "proved" -> { t with K.proved = t.K.proved + 1 }
      | "failed" -> { t with K.failed = t.K.failed + 1 }
      | "resource_out" -> { t with K.resource_out = t.K.resource_out + 1 }
      | _ -> { t with K.errors = t.K.errors + 1 })
    { K.properties = 0; proved = 0; failed = 0; resource_out = 0; errors = 0 }
    outcomes

let undecided (t : K.totals) = t.K.resource_out + t.K.errors

(* (obligation, outcome, seeded bug) per campaign row, in work-list order,
   against the campaign's known answer *)
let campaign_check ~expected rows =
  let totals = tally (List.map (fun (_, o, _) -> o) rows) in
  let unexplained_failures =
    List.length
      (List.filter
         (fun (_, o, bug) -> verdict_name o = "failed" && bug = None)
         rows)
  in
  { totals;
    mismatches = K.oracle ~expected totals ~unexplained_failures;
    digest =
      digest
        (List.map
           (fun (name, o, _) ->
             name ^ " " ^ verdict_name o ^ " " ^ o.E.engine_used)
           rows) }

(* every differential engine run of a fuzz unit, named by case, property
   and strategy *)
let engine_runs results =
  List.concat_map
    (fun ((r : Qa.Differential.report), _) ->
      List.concat_map
        (fun (ob : Qa.Differential.obligation_report) ->
          List.map
            (fun (er : Qa.Differential.engine_result) ->
              ( Printf.sprintf "%s/%s/%s%s" r.Qa.Differential.case.Qa.Gen.id
                  ob.Qa.Differential.prop_name
                  (E.strategy_name er.Qa.Differential.strategy)
                  (if er.Qa.Differential.scratch then "[scratch]" else ""),
                er.Qa.Differential.outcome ))
            ob.Qa.Differential.engines)
        r.Qa.Differential.obligations)
    results

let fuzz_check results =
  let runs = engine_runs results in
  let kills =
    List.concat_map
      (fun ((r : Qa.Differential.report), kills) ->
        List.map (fun k -> (r.Qa.Differential.case.Qa.Gen.id, k)) kills)
      results
  in
  let discrepancies =
    List.concat_map
      (fun ((r : Qa.Differential.report), _) ->
        List.map
          (fun (d : Qa.Differential.discrepancy) ->
            Printf.sprintf "discrepancy %s in %s: %s"
              (Qa.Differential.kind_name d.Qa.Differential.kind)
              d.Qa.Differential.case_id d.Qa.Differential.detail)
          r.Qa.Differential.discrepancies)
      results
  in
  let misses =
    List.filter_map
      (fun (id, (k : Qa.Mutate.kill)) ->
        if k.Qa.Mutate.detected then None
        else
          Some
            (Printf.sprintf "mutant %s of %s survived"
               (Chip.Bugs.name k.Qa.Mutate.bug) id))
      kills
  in
  { totals = tally (List.map snd runs);
    mismatches = discrepancies @ misses;
    digest =
      digest
        (List.map
           (fun (n, o) -> n ^ " " ^ verdict_name o ^ " " ^ o.E.engine_used)
           runs
        @ List.map
            (fun (id, (k : Qa.Mutate.kill)) ->
              Printf.sprintf "%s %s %b" id (Chip.Bugs.name k.Qa.Mutate.bug)
                k.Qa.Mutate.detected)
            kills) }

(* ---- the traced drive ---- *)

(* Layer counts the spans cannot give: cache outcomes, the outcomes of the
   engine runs the unit performed, and per-design or file sizes. *)
type counts = {
  lookups : int;
  hits : int;
  fresh : E.outcome list;
  file_bytes : int;
  slowest_design_s : float;
}

let no_counts =
  { lookups = 0; hits = 0; fresh = []; file_bytes = 0; slowest_design_s = 0.0 }

(* A bench-side span around one call into a layer: the program's own spans
   (the prepare, engine and qa categories) nest under it. *)
let layer name f = T.span ~cat:"layer" name f

(* The sequential path of [Core.Campaign.run], one public call at a time:
   enumerate, prepare each module once, package and fingerprint each
   obligation, look it up in the cache, and run the engine on a miss. *)
let drive_campaign ?budget ?strategy ~cache chip =
  let prop_key (w : C.work) = w.C.w_vunit_name ^ "/" ^ w.C.w_prop_name in
  let items, props =
    layer "enumerate" (fun () ->
        let items = C.work_items chip in
        let props = Hashtbl.create 64 in
        List.iter
          (fun (w : C.work) ->
            let m = w.C.w_mdl.Rtl.Mdl.name in
            let prev = Option.value ~default:[] (Hashtbl.find_opt props m) in
            Hashtbl.replace props m
              (prev @ [ (prop_key w, w.C.w_assert, w.C.w_assumes) ]))
          items;
        (items, props))
  in
  let prepared = Hashtbl.create 64 in
  let lookups = ref 0 and hits = ref 0 and fresh = ref [] in
  let row (w : C.work) =
    let m = w.C.w_mdl.Rtl.Mdl.name in
    let table =
      match Hashtbl.find_opt prepared m with
      | Some t -> t
      | None ->
        let t =
          layer "prepare" (fun () ->
              E.prepare_module w.C.w_mdl ~props:(Hashtbl.find props m))
        in
        Hashtbl.add prepared m t;
        t
    in
    let ob =
      Mc.Obligation.of_prepared ?budget ?strategy (List.assoc (prop_key w) table)
        ~meta:()
    in
    let key = layer "fingerprint" (fun () -> Mc.Obligation.fingerprint ob) in
    incr lookups;
    let outcome =
      match layer "cache" (fun () -> Mc.Cache.find cache ~key) with
      | Some o ->
        incr hits;
        o
      | None ->
        let o = layer "engine" (fun () -> Mc.Obligation.run ob) in
        fresh := o :: !fresh;
        (match o.E.verdict with
         | E.Error _ -> ()
         | _ -> layer "cache" (fun () -> Mc.Cache.add cache ~key o));
        o
    in
    (m ^ "/" ^ prop_key w, outcome, w.C.w_bug)
  in
  let rows = List.map row items in
  ( rows,
    { no_counts with lookups = !lookups; hits = !hits; fresh = List.rev !fresh }
  )

let campaign_rows (c : C.t) =
  List.map
    (fun (r : C.prop_result) ->
      ( r.C.module_name ^ "/" ^ r.C.vunit_name ^ "/" ^ r.C.prop_name,
        r.C.outcome, r.C.bug ))
    c.C.results

(* ---- workloads ---- *)

(* a unit's check from its steps' *)
let merge cs =
  let add (a : K.totals) (b : K.totals) =
    { K.properties = a.K.properties + b.K.properties;
      proved = a.K.proved + b.K.proved;
      failed = a.K.failed + b.K.failed;
      resource_out = a.K.resource_out + b.K.resource_out;
      errors = a.K.errors + b.K.errors }
  in
  { totals = List.fold_left add (tally []) (List.map (fun c -> c.totals) cs);
    mismatches = List.concat_map (fun c -> c.mismatches) cs;
    digest = digest (List.map (fun c -> c.digest) cs) }

(* Units are numbered from 0 in run order. A unit is a list of steps, each
   timed in a child process of its own. A step calls [mark] between pieces
   of its work, where a timed segment may end (see [calibrated]), and
   returns the check of its outputs, computed once the timer has
   stopped. *)
type instance = {
  steps : int -> ((unit -> unit) -> unit -> check) list;
      (** one untraced unit, through the product's entry *)
  weights : float list option;
      (** one weight per step: the unit's time and peak memory are then
          the weighted means over its steps, not their sum and maximum *)
  drive : int -> check list * counts;
      (** the same unit, layer by layer, with one check per step *)
}

type workload = { name : string; setup : seed:int -> instance }

let baseline =
  lazy
    (match
       Obs.Json.parse
         (In_channel.with_open_text "BENCH_baseline.json" In_channel.input_all)
     with
     | Ok j -> j
     | Error e -> failwith ("BENCH_baseline.json: " ^ e))

let expected label =
  match K.baseline_row (Lazy.force baseline) label with
  | Some t -> t
  | None -> failwith ("BENCH_baseline.json has no run " ^ label)

(* A whole-chip campaign on a fresh cache; the campaign's own progress
   callback, called after every obligation, is where segments end. *)
let campaign_instance ?budget ?strategy ~label (chip : Chip.Generator.t) =
  let expected = expected label in
  { steps =
      (fun _ ->
        [ (fun mark ->
            let c =
              C.run ?budget ?strategy
                ~progress:(fun _ -> mark ())
                ~cache:(Mc.Cache.create ()) chip
            in
            fun () -> campaign_check ~expected (campaign_rows c)) ]);
    weights = None;
    drive =
      (fun _ ->
        let rows, counts =
          drive_campaign ?budget ?strategy ~cache:(Mc.Cache.create ()) chip
        in
        ([ campaign_check ~expected rows ], counts)) }

let campaign =
  { name = "campaign";
    setup =
      (fun ~seed:_ ->
        campaign_instance ~label:"pre-fix" (Chip.Generator.generate ())) }

(* Run [f] in a forked child and return its result and the child's peak
   resident set in MB. Every timed call runs this way, so each starts from
   the same parent state: within one long-lived process the first units
   run up to 1.3x slower than later ones while the heap grows, which made
   a run's median depend on how many units it fitted. *)
let in_child (type a) (f : unit -> a) : a * float =
  let vm_hwm_kb () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id
          | Some _ -> scan ()
        in
        scan ())
  in
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let result : (a * int option, string) result =
      match f () with
      | v -> Ok (v, vm_hwm_kb ())
      | exception Failure m -> Error m
      | exception e -> Error (Printexc.to_string e)
    in
    flush_all ();
    Marshal.to_channel oc result [];
    flush oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result : (a * int option, string) result option =
      try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match result with
    | Some (Ok (v, Some kb)) -> (v, float_of_int kb /. 1024.0)
    | Some (Ok (_, None)) -> failwith "no VmHWM in /proc/self/status"
    | Some (Error e) -> failwith e
    | None -> failwith "a measured child process died")

(* The fix-and-re-verify loop of the CLI's default --cache flow: set-up
   persists the pre-fix campaign's cache; each unit loads it, re-verifies
   the post-fix chip and saves the grown cache. The seed campaign runs in
   a child, so the process the units fork from holds only the post-fix
   chip. *)
let recheck =
  let seed_cache = result_path "recheck-seed.cache"
  and out_cache = result_path "recheck-out.cache" in
  let load () =
    match Mc.Cache.load seed_cache with
    | Some c -> c
    | None -> failwith ("cannot load " ^ seed_cache)
  in
  { name = "recheck";
    setup =
      (fun ~seed:_ ->
        let (), _ =
          in_child (fun () ->
              let cache = Mc.Cache.create () in
              let c = C.run ~cache (Chip.Generator.generate ()) in
              let seeded =
                campaign_check ~expected:(expected "pre-fix") (campaign_rows c)
              in
              if seeded.mismatches <> [] then
                failwith
                  ("pre-fix seed campaign: "
                  ^ String.concat "; " seeded.mismatches);
              Mc.Cache.save cache seed_cache)
        in
        let post = Chip.Generator.generate ~with_bugs:false () in
        let expected = expected "post-fix" in
        { steps =
            (fun _ ->
              [ (fun mark ->
                  let cache = load () in
                  mark ();
                  let c = C.run ~progress:(fun _ -> mark ()) ~cache post in
                  Mc.Cache.save cache out_cache;
                  fun () -> campaign_check ~expected (campaign_rows c)) ]);
          weights = None;
          drive =
            (fun _ ->
              let cache = layer "cache.load" load in
              let rows, counts = drive_campaign ~cache post in
              layer "cache.save" (fun () -> Mc.Cache.save cache out_cache);
              ( [ campaign_check ~expected rows ],
                { counts with
                  file_bytes = (Unix.stat out_cache).Unix.st_size } )) }) }

(* The whole chip under BMC at the default budget's depth 20, where the BMC
   engine is about 85% of the work. *)
let bmc =
  { name = "bmc";
    setup =
      (fun ~seed:_ ->
        campaign_instance ~strategy:E.Bmc ~label:"bmc-incremental"
          (Chip.Generator.generate ())) }

(* The fuzz stream of [Qa.Fuzz.run], [Qa.Gen.case_of ~seed ~index], with
   the designs too slow for a unit left out. A design's cost is set mostly
   by its (template, width, depth) shape. These are the shapes whose
   slowest timed design, over three to fifteen designs each, took at most
   1.25 s on the reference machine, with that time. Every other shape
   timed had a design that took longer, up to 49 s; the README gives the
   sweep and the share of the stream these shapes keep. *)
let fuzz_shapes =
  Qa.Gen.
    [ (Fsm_ctrl, 3, 1, 0.13); (Fsm_ctrl, 4, 1, 0.08); (Fsm_ctrl, 5, 1, 0.28);
      (Fsm_ctrl, 6, 1, 0.31); (Fsm_ctrl, 7, 1, 0.33); (Fsm_ctrl, 8, 1, 0.34);
      (Counter, 2, 1, 0.10); (Counter, 3, 1, 0.14); (Counter, 4, 1, 0.33);
      (Counter, 5, 1, 0.95);
      (Csr, 2, 1, 0.06); (Csr, 3, 1, 0.14); (Csr, 4, 1, 0.11);
      (Csr, 5, 1, 0.20); (Csr, 6, 1, 0.57);
      (Macro_if, 2, 1, 0.06); (Macro_if, 3, 1, 0.16); (Macro_if, 4, 1, 0.15);
      (Macro_if, 5, 1, 0.44);
      (Datapath, 2, 1, 0.14); (Datapath, 3, 1, 0.38); (Datapath, 4, 1, 1.00);
      (Decoder, 3, 1, 0.13); (Decoder, 4, 1, 0.32); (Decoder, 5, 1, 0.82);
      (Fifo, 2, 2, 1.04);
      (Merge, 2, 1, 1.11); (Merge, 2, 2, 0.32); (Merge, 2, 3, 0.45);
      (Merge, 2, 4, 0.26); (Merge, 2, 5, 0.26); (Merge, 2, 6, 0.25);
      (Merge, 2, 7, 0.25); (Merge, 3, 3, 0.98); (Merge, 3, 4, 0.70);
      (Merge, 3, 5, 0.64); (Merge, 3, 6, 0.62); (Merge, 3, 7, 0.64);
      (Filler, 3, 1, 0.28) ]

let admitted (p : Qa.Gen.params) =
  List.exists
    (fun (t, w, d, _) ->
      t = p.Qa.Gen.template && w = p.Qa.Gen.width && d = p.Qa.Gen.depth)
    fuzz_shapes

(* The shape weights and each shape's designs come from the first
   [fuzz_stream] entries of the seed's stream. [fuzz_count] is the design
   count of a typical [dicheck fuzz] run; the printed coverage is for the
   seed's first [fuzz_count] designs. *)
let fuzz_stream = 10_000
let fuzz_count = 200

(* The per-case body of [Qa.Fuzz.run]: generate the case, run the
   differential battery, then the mutation gauntlet when the template hosts
   seeded bugs. With telemetry off the layer spans cost one counter
   increment each, so the untraced unit runs this same code. *)
let fuzz_case ~seed index =
  let case = layer "qa.gen" (fun () -> Qa.Gen.case_of ~seed ~index) in
  let report =
    layer "qa.differential" (fun () -> Qa.Differential.check_case case)
  in
  let kills =
    if Qa.Gen.mutations case.Qa.Gen.params = [] then []
    else
      (layer "qa.gauntlet" (fun () ->
           Qa.Mutate.run_case case.Qa.Gen.params ~id:case.Qa.Gen.id))
        .Qa.Mutate.kills
  in
  (report, kills)

(* A unit checks one design of every admitted shape, each a step, and its
   time and memory are the means over those designs weighted by each
   shape's frequency in the seed's stream: those of one design of the
   capped stream. Unit [k] takes the [k]-th design of each shape in stream
   order, so every unit sees other variants, but always the stream's shape
   mix. In one process the peak memory of a unit would be that of its
   largest design, which changes with the seed. *)
let fuzz =
  { name = "fuzz";
    setup =
      (fun ~seed ->
        let by_shape = Hashtbl.create 64 in
        for index = fuzz_stream - 1 downto 0 do
          let p = Qa.Gen.params_of ~seed ~index in
          if admitted p then begin
            let key = (p.Qa.Gen.template, p.Qa.Gen.width, p.Qa.Gen.depth) in
            Hashtbl.replace by_shape key
              (index :: Option.value ~default:[] (Hashtbl.find_opt by_shape key))
          end
        done;
        let shapes =
          List.sort
            (fun (_, a) (_, b) -> compare (List.hd a) (List.hd b))
            (List.of_seq (Hashtbl.to_seq by_shape))
        in
        let designs k =
          List.map
            (fun (_, indices) -> List.nth indices (k mod List.length indices))
            shapes
        in
        { steps =
            (fun k ->
              List.map
                (fun index _ ->
                  let r = fuzz_case ~seed index in
                  fun () -> fuzz_check [ r ])
                (designs k));
          weights =
            Some
              (List.map
                 (fun (_, indices) -> float_of_int (List.length indices))
                 shapes);
          drive =
            (fun k ->
              let timed =
                List.map
                  (fun index ->
                    let t0 = now () in
                    let r = fuzz_case ~seed index in
                    (r, now () -. t0))
                  (designs k)
              in
              let results = List.map fst timed in
              ( List.map (fun r -> fuzz_check [ r ]) results,
                { no_counts with
                  fresh = List.map snd (engine_runs results);
                  slowest_design_s =
                    List.fold_left (fun a (_, t) -> Float.max a t) 0.0 timed }
              )) }) }

(* The share of the seed's first [fuzz_count] designs that [fuzz] covers *)
let fuzz_coverage ~seed =
  let n = ref 0 in
  for index = 0 to fuzz_count - 1 do
    if admitted (Qa.Gen.params_of ~seed ~index) then incr n
  done;
  float_of_int !n /. float_of_int fuzz_count

let workloads = [ campaign; recheck; bmc; fuzz ]

(* ---- the speed reference ---- *)

(* On the 2-vCPU VM this benchmark was sized on, other tenants slow every
   process by up to 1.8x, in phases that last from under a second to over a
   minute, so raw medians of 20 s runs of one commit spread by 5-30% (IQR
   over median, ten runs). The time of a fixed kernel is the speed
   reference: every timed segment of work is divided by the mean of the
   kernel times at its two ends over [calibration_ref_s], i.e. reported in
   seconds at the kernel's speed on a quiet machine. The slow phases are
   memory contention, so the kernel is allocation-bound; the README gives
   the studies behind its choice. It runs in calib.exe, a process that
   links none of the program, so a change to the program's GC settings or
   heap changes the measured times, not the reference. The kernel must
   change rarely: its reference time is part of every calibrated number.
   The raw values stay in the record. *)
let calibration_ref_s = 0.022

(* A segment ends at the first mark after this long *)
let segment_s = 0.25

type reference = { pid : int; req : out_channel; resp : in_channel }

let start_reference () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  let env =
    Array.of_list
      (List.filter
         (fun v ->
           not
             (String.starts_with ~prefix:"OCAMLRUNPARAM=" v
             || String.starts_with ~prefix:"CAMLRUNPARAM=" v))
         (Array.to_list (Unix.environment ())))
  in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe [| exe |] env req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  { pid; req = Unix.out_channel_of_descr req_w;
    resp = Unix.in_channel_of_descr resp_r }

let stop_reference r =
  close_out_noerr r.req;
  close_in_noerr r.resp;
  ignore (Unix.waitpid [] r.pid)

(* One kernel time. A measured child asks through the parent's pipes,
   which it inherits; the parent waits meanwhile, so the two never talk to
   the reference at once. *)
let kernel_sample r =
  output_char r.req '\n';
  flush r.req;
  float_of_string (input_line r.resp)

type timing = {
  segments : (float * float) list;  (** raw and calibrated seconds *)
  kernels : float list;  (** kernel times at the segment ends *)
  rss_mb : float;
}

(* Run [f] in a child, timed in segments. [f mark] does the work and calls
   [mark]; the segment that begins with the kernel time [before] ends at
   the first such call after [segment_s], and the last one ends when [f]
   returns. Time spent taking kernel samples is not counted. *)
let calibrated r ~before f =
  let (check, segments, kernels), rss_mb =
    in_child (fun () ->
        let segments = ref [] and kernels = ref [] in
        let k_prev = ref before and t_prev = ref (now ()) in
        let close () =
          let dt = now () -. !t_prev in
          let k = kernel_sample r in
          let speed = (!k_prev +. k) /. 2.0 /. calibration_ref_s in
          segments := (dt, dt /. speed) :: !segments;
          kernels := k :: !kernels;
          k_prev := k;
          t_prev := now ()
        in
        let mark () = if now () -. !t_prev >= segment_s then close () in
        let finish = f mark in
        close ();
        let check = finish () in
        (check, List.rev !segments, List.rev !kernels))
  in
  (check, { segments; kernels; rss_mb })

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

(* Per-layer values of one traced unit: busy time, calls and allocation of
   the bench-side layer spans, self time of the program's own spans (via
   Obs.Profile), and the layer counts. *)
let layer_values (rep : T.report) prof (cn : counts) wall =
  let spans name =
    List.filter (fun (s : T.span) -> s.T.cat = "layer" && s.T.name = name)
      rep.T.spans
  in
  let busy name = sum (fun (s : T.span) -> s.T.dur_us) (spans name) /. 1e6 in
  let calls name = float_of_int (List.length (spans name)) in
  let alloc name = sum (fun (s : T.span) -> s.T.alloc_mw) (spans name) /. 1e6 in
  let self classes =
    sum
      (fun (e : Obs.Profile.entry) ->
        if List.mem e.Obs.Profile.e_class classes then e.Obs.Profile.e_self_us
        else 0.0)
      prof.Obs.Profile.p_entries
    /. 1e6
  in
  let perf f =
    float_of_int (List.fold_left (fun a o -> a + f o.E.perf) 0 cn.fresh)
  in
  let attributed =
    sum
      (fun (s : T.span) -> if s.T.cat = "layer" then s.T.dur_us else 0.0)
      rep.T.spans
    /. 1e6
  in
  [ ("enumerate.busy_s", "s", busy "enumerate");
    ("prepare.busy_s", "s", busy "prepare");
    ("prepare.calls", "count", calls "prepare");
    ("prepare.alloc_mw", "Mw", alloc "prepare");
    ("prepare.inline.self_s", "s", self [ "prepare/prepare.inline" ]);
    ("prepare.monitor.self_s", "s", self [ "prepare/prepare.monitor" ]);
    ("prepare.elaborate.self_s", "s", self [ "prepare/prepare.elaborate" ]);
    ("prepare.coi.self_s", "s", self [ "prepare/prepare.coi" ]);
    ("fingerprint.busy_s", "s", busy "fingerprint");
    ("fingerprint.calls", "count", calls "fingerprint");
    ("fingerprint.alloc_mw", "Mw", alloc "fingerprint");
    ("cache.busy_s", "s", busy "cache");
    ("cache.lookups", "count", float_of_int cn.lookups);
    ("cache.hit_ratio", "ratio",
     if cn.lookups = 0 then 0.0
     else float_of_int cn.hits /. float_of_int cn.lookups);
    ("cache.load_s", "s", busy "cache.load");
    ("cache.save_s", "s", busy "cache.save");
    ("cache.file_bytes", "bytes", float_of_int cn.file_bytes);
    ("engine.busy_s", "s", busy "engine");
    ("engine.runs", "count", float_of_int (List.length cn.fresh));
    ("engine.alloc_mw", "Mw", alloc "engine");
    ("engine.bdd.self_s", "s",
     self
       [ "engine/bdd-forward"; "engine/bdd-backward"; "engine/bdd-combined" ]);
    ("engine.pobdd.self_s", "s", self [ "engine/pobdd" ]);
    ("engine.bmc.self_s", "s", self [ "engine/bmc" ]);
    ("engine.kind.self_s", "s", self [ "engine/k-induction" ]);
    ("engine.ic3.self_s", "s", self [ "engine/ic3" ]);
    ("engine.fix_iterations", "count", perf (fun p -> p.E.fix_iterations));
    ("engine.bdd_peak", "nodes",
     float_of_int
       (List.fold_left (fun a o -> max a o.E.perf.E.bdd_peak) 0 cn.fresh));
    ("engine.sat_decisions", "count", perf (fun p -> p.E.sat_decisions));
    ("engine.sat_conflicts", "count", perf (fun p -> p.E.sat_conflicts));
    ("engine.sat_propagations", "count", perf (fun p -> p.E.sat_propagations));
    ("engine.incremental_reuse", "count",
     perf (fun p -> p.E.incremental_reuse));
    ("qa.gen.busy_s", "s", busy "qa.gen");
    ("qa.differential.busy_s", "s", busy "qa.differential");
    ("qa.gauntlet.busy_s", "s", busy "qa.gauntlet");
    ("qa.slowest_design_s", "s", cn.slowest_design_s);
    ("unattributed_s", "s", wall -. attributed) ]

type run = {
  samples : float list;  (** untraced unit times, in run order *)
  checks : check list;
  metrics : K.metric list;
  raw : K.metric list;
}

(* A unit's raw time, calibrated time and peak memory from its steps':
   the sums and the maximum, or for a weighted instance the weighted
   means. *)
let unit_values inst (steps : timing list) =
  let raw (t : timing) = sum fst t.segments
  and scaled (t : timing) = sum snd t.segments
  and rss (t : timing) = t.rss_mb in
  match inst.weights with
  | None ->
    ( sum raw steps, sum scaled steps,
      List.fold_left (fun a t -> Float.max a (rss t)) 0.0 steps )
  | Some ws ->
    let total = sum Fun.id ws in
    let mean f = sum Fun.id (List.map2 (fun w t -> w *. f t) ws steps) /. total in
    (mean raw, mean scaled, mean rss)

(* Set-up is timed at least [setup_min_reps] times and until [setup_min_s]
   of it has run, at most [setup_max_reps] times: a 5 ms fuzz set-up timed
   five times moved its median by 19% between two sets of ten runs. *)
let setup_min_reps = 5
let setup_max_reps = 25
let setup_min_s = 2.0

(* The end-to-end run: set-up timed repeatedly, then untraced units until
   [seconds] have passed. *)
let measure r w ~seed ~seconds =
  let before = ref (kernel_sample r) in
  let kernels = ref [ !before ] in
  let timed f =
    let check, t = calibrated r ~before:!before f in
    kernels := List.rev_append t.kernels !kernels;
    before := List.hd !kernels;
    (check, t)
  in
  let rec setups acc spent =
    let n = List.length acc in
    if n >= setup_max_reps || (n >= setup_min_reps && spent >= setup_min_s)
    then List.rev acc
    else
      let (), t =
        timed (fun _ ->
            ignore (w.setup ~seed);
            Fun.id)
      in
      let raw = sum fst t.segments and scaled = sum snd t.segments in
      setups ((raw, scaled) :: acc) (spent +. raw)
  in
  let setups = setups [] 0.0 in
  let inst = w.setup ~seed in
  Gc.full_major ();
  before := kernel_sample r;
  kernels := !before :: !kernels;
  let t_end = now () +. float_of_int seconds in
  let units = ref [] in
  while !units = [] || now () < t_end do
    let checks, steps =
      List.split (List.map timed (inst.steps (List.length !units)))
    in
    let raw, scaled, rss_mb = unit_values inst steps in
    units := (merge checks, raw, scaled, rss_mb) :: !units
  done;
  let units = List.rev !units in
  let raw = List.map (fun (_, raw, _, _) -> raw) units in
  { samples = raw;
    checks = List.map (fun (c, _, _, _) -> c) units;
    metrics =
      [ K.metric "wall_s" "s" (List.map (fun (_, _, s, _) -> s) units);
        K.metric "setup_s" "s" (List.map snd setups);
        K.metric "peak_rss_mb" "MB" (List.map (fun (_, _, _, mb) -> mb) units)
      ];
    raw =
      [ K.metric "raw_wall_s" "s" raw;
        K.metric "raw_setup_s" "s" (List.map fst setups);
        K.metric "calibration_s" "s" !kernels ] }

(* The per-layer run: untraced units alternate with traced drives of the
   same unit; the untraced ones give the verdicts the drive must reproduce
   and the baseline of the tracing overhead. *)
let measure_traced w ~seed ~seconds =
  let inst = w.setup ~seed in
  Gc.full_major ();
  let t_end = now () +. float_of_int seconds in
  let pairs = ref [] in
  while !pairs = [] || now () < t_end do
    let k = List.length !pairs in
    let (plain, dt), _ =
      in_child (fun () ->
          let t0 = now () in
          let finish = List.map (fun step -> step ignore) (inst.steps k) in
          let dt = now () -. t0 in
          (merge (List.map (fun f -> f ()) finish), dt))
    in
    let (c, dt', values, profile), _ =
      in_child (fun () ->
          T.start ();
          let t0 = now () in
          let cs, cn = inst.drive k in
          let dt' = now () -. t0 in
          let rep = T.stop () in
          let prof = Obs.Profile.of_report rep in
          if k = 0 then
            Obs.Trace_export.write
              (result_path ("perf-" ^ w.name ^ "-trace.json"))
              rep;
          ( merge cs, dt', layer_values rep prof cn dt',
            Format.asprintf "%a" (Obs.Profile.pp ~k:12) prof ))
    in
    if k = 0 then print_string profile;
    let c =
      if c.digest = plain.digest then c
      else
        { c with
          mismatches =
            "traced drive disagrees with the untraced unit" :: c.mismatches }
    in
    pairs := (plain, dt, c, dt', values) :: !pairs
  done;
  let pairs = List.rev !pairs in
  let per_layer =
    List.map
      (fun (name, unit_, _) ->
        K.metric name unit_
          (List.map
             (fun (_, _, _, _, vs) ->
               let _, _, v = List.find (fun (n, _, _) -> n = name) vs in
               v)
             pairs))
      (let _, _, _, _, vs = List.hd pairs in
       vs)
  in
  let samples = List.map (fun (_, dt, _, _, _) -> dt) pairs in
  let traced = List.map (fun (_, _, _, dt', _) -> dt') pairs in
  { samples;
    checks = List.concat_map (fun (p, _, c, _, _) -> [ p; c ]) pairs;
    metrics =
      per_layer
      @ [ K.metric "trace_overhead" "ratio"
            [ (K.median traced /. K.median samples) -. 1.0 ] ];
    raw = [] }

let write_json path j =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string_pretty j))

let run_workload r w ~seed ~seconds ~trace =
  let run =
    if trace then measure_traced w ~seed ~seconds
    else measure r w ~seed ~seconds
  in
  let failed = List.filter (fun c -> c.mismatches <> []) run.checks in
  let record =
    { K.workload = w.name; seed; seconds; traced = trace;
      attempted = List.length run.checks; failed = List.length failed;
      mismatches =
        List.sort_uniq compare (List.concat_map (fun c -> c.mismatches) failed);
      metrics = run.metrics; raw = run.raw; wall_samples = run.samples;
      totals = (List.hd run.checks).totals }
  in
  write_json
    (result_path
       (Printf.sprintf "perf-%s%s.json" w.name (if trace then "-layers" else "")))
    (K.record_json record);
  let n = List.length run.samples in
  Printf.printf
    "workload %s: seed %d, %d units in %ds (closed loop, 1 client, jobs=1)\n"
    w.name seed n seconds;
  List.iter
    (fun (m : K.metric) ->
      Printf.printf "  %-26s %14.6f %-6s (q1 %.6f, q3 %.6f, n=%d)\n" m.K.name
        m.K.value m.K.unit_ m.K.q1 m.K.q3 m.K.n)
    (record.K.metrics @ record.K.raw);
  (match K.tail_percentile n with
   | Some pm ->
     Printf.printf "  raw wall p%g: %.6f s over %d units\n"
       (float_of_int pm /. 10.0)
       (K.quantile run.samples (float_of_int pm /. 1000.0))
       n
   | None -> ());
  if w.name = "fuzz" then
    Printf.printf "  fuzz coverage: %.1f%% of the seed's first %d designs\n"
      (100.0 *. fuzz_coverage ~seed)
      fuzz_count;
  Printf.printf "  verdict_mismatches %d, undecided %d\n"
    (List.length record.K.mismatches)
    (undecided record.K.totals);
  List.iter (Printf.printf "  MISMATCH %s\n") record.K.mismatches;
  record

let () =
  let workload = ref "all" and seed = ref 42 and seconds = ref 20
  and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME campaign, recheck, bmc, fuzz or all (default all)");
      ("--seed", Arg.Set_int seed, "N input seed, >= 0 (default 42)");
      ("--seconds", Arg.Set_int seconds, "S measuring time per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  let selected =
    if !workload = "all" then workloads
    else List.filter (fun w -> w.name = !workload) workloads
  in
  if selected = [] || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "perf: bad --workload, --seed, --seconds or --trace";
    exit 2
  end;
  (try Sys.mkdir results_dir 0o755 with Sys_error _ -> ());
  let r = start_reference () in
  let records =
    Fun.protect
      ~finally:(fun () -> stop_reference r)
      (fun () ->
        (* each workload in a child of its own, so no workload starts from
           the heap another one left *)
        List.map
          (fun w ->
            match
              in_child (fun () ->
                  run_workload r w ~seed:!seed ~seconds:!seconds
                    ~trace:(!trace = 1))
            with
            | record, _ -> record
            | exception e ->
              let msg =
                match e with Failure m -> m | e -> Printexc.to_string e
              in
              Printf.eprintf "perf: %s: %s\n%!" w.name msg;
              K.crashed ~workload:w.name ~seed:!seed ~seconds:!seconds
                ~traced:(!trace = 1) msg)
          selected)
  in
  print_endline (K.result_line records);
  exit (if List.for_all K.correct records then 0 else 1)
