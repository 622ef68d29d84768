type verdict_class = [ `Proved | `Failed | `Resource_out | `Error ]

type fly = {
  fy_ob : string;
  fy_engine : string;
  fy_attempt : int;
  fy_t0 : float;
}

type in_flight = {
  f_lane : int;
  f_obligation : string;
  f_engine : string;
  f_attempt : int;
  f_elapsed_s : float;
  f_beacon : Mc.Beacon.t option;
}

type snapshot = {
  s_phase : string;
  s_elapsed_s : float;
  s_jobs : int;
  s_total : int;
  s_done : int;
  s_proved : int;
  s_failed : int;
  s_resource_out : int;
  s_errors : int;
  s_cache_hits : int;
  s_retries : int;
  s_healed : int;
  s_raced : int;
  s_rate_per_s : float;
  s_eta_s : float option;
  s_in_flight : in_flight list;
}

type t = {
  lock : Mutex.t;
  t0 : float;
  jobs : int;
  mutable phase : string;
  mutable total : int;
  mutable done_ : int;
  mutable proved : int;
  mutable failed : int;
  mutable resource_out : int;
  mutable errors : int;
  mutable cache_hits : int;
  mutable retries : int;
  mutable healed : int;
  mutable raced : int;
  flying : (int, fly) Hashtbl.t;
}

let create ?(jobs = 1) () =
  { lock = Mutex.create (); t0 = Unix.gettimeofday (); jobs;
    phase = "starting"; total = 0; done_ = 0; proved = 0; failed = 0;
    resource_out = 0; errors = 0; cache_hits = 0; retries = 0;
    healed = 0; raced = 0; flying = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_total t n = locked t (fun () -> t.total <- n)
let set_phase t p = locked t (fun () -> t.phase <- p)

let lane () = (Domain.self () :> int)

let begin_work t ~obligation ~engine ~attempt =
  let fy =
    { fy_ob = obligation; fy_engine = engine; fy_attempt = attempt;
      fy_t0 = Unix.gettimeofday () }
  in
  locked t (fun () -> Hashtbl.replace t.flying (lane ()) fy)

let end_work t = locked t (fun () -> Hashtbl.remove t.flying (lane ()))

let retry t = locked t (fun () -> t.retries <- t.retries + 1)

let tally t (v : verdict_class) =
  match v with
  | `Proved -> t.proved <- t.proved + 1
  | `Failed -> t.failed <- t.failed + 1
  | `Resource_out -> t.resource_out <- t.resource_out + 1
  | `Error -> t.errors <- t.errors + 1

let finish t ~verdict ~cache_hit ~raced ~healed =
  locked t (fun () ->
      Hashtbl.remove t.flying (lane ());
      t.done_ <- t.done_ + 1;
      tally t verdict;
      if cache_hit then t.cache_hits <- t.cache_hits + 1;
      if raced then t.raced <- t.raced + 1;
      if healed then t.healed <- t.healed + 1)

let reclassify t ~to_ =
  locked t (fun () ->
      t.resource_out <- t.resource_out - 1;
      tally t to_;
      match to_ with
      | `Proved | `Failed -> t.healed <- t.healed + 1
      | `Resource_out | `Error -> ())

let snapshot t =
  let beacons = Mc.Beacon.snapshot () in
  let now = Unix.gettimeofday () in
  locked t (fun () ->
      let elapsed = now -. t.t0 in
      let fresh = t.done_ - t.cache_hits in
      let rate =
        if elapsed > 0.0 then float_of_int t.done_ /. elapsed else 0.0
      in
      (* ETA from fresh-solve throughput: cached verdicts return in
         microseconds and would make the naive done/elapsed estimate wildly
         optimistic for the engine-bound remainder *)
      let eta =
        if t.done_ >= t.total then Some 0.0
        else if fresh > 0 then
          Some
            (elapsed /. float_of_int fresh *. float_of_int (t.total - t.done_))
        else if t.done_ > 0 && rate > 0.0 then
          Some (float_of_int (t.total - t.done_) /. rate)
        else None
      in
      let in_flight =
        Hashtbl.fold
          (fun ln fy acc ->
            { f_lane = ln; f_obligation = fy.fy_ob; f_engine = fy.fy_engine;
              f_attempt = fy.fy_attempt; f_elapsed_s = now -. fy.fy_t0;
              f_beacon =
                List.find_opt (fun b -> b.Mc.Beacon.lane = ln) beacons }
            :: acc)
          t.flying []
        |> List.sort (fun a b -> compare a.f_lane b.f_lane)
      in
      { s_phase = t.phase; s_elapsed_s = elapsed; s_jobs = t.jobs;
        s_total = t.total; s_done = t.done_; s_proved = t.proved;
        s_failed = t.failed; s_resource_out = t.resource_out;
        s_errors = t.errors; s_cache_hits = t.cache_hits;
        s_retries = t.retries; s_healed = t.healed;
        s_raced = t.raced; s_rate_per_s = rate; s_eta_s = eta;
        s_in_flight = in_flight })

let snapshot_json t =
  let module J = Obs.Json in
  let s = snapshot t in
  let fly f =
    J.Obj
      ([ ("lane", J.Int f.f_lane);
         ("obligation", J.String f.f_obligation);
         ("engine", J.String f.f_engine);
         ("attempt", J.Int f.f_attempt);
         ("elapsed_s", J.Float f.f_elapsed_s) ]
      @
      match f.f_beacon with
      | None -> []
      | Some b ->
        [ ("beacon",
           J.Obj
             [ ("engine", J.String b.Mc.Beacon.engine);
               ("step", J.Int b.Mc.Beacon.step);
               ("work", J.Int b.Mc.Beacon.work);
               ("age_s", J.Float b.Mc.Beacon.age_s) ]) ])
  in
  J.Obj
    [ ("schema", J.String "dicheck-status-v1");
      ("phase", J.String s.s_phase);
      ("elapsed_s", J.Float s.s_elapsed_s);
      ("jobs", J.Int s.s_jobs);
      ("total", J.Int s.s_total);
      ("done", J.Int s.s_done);
      ("proved", J.Int s.s_proved);
      ("failed", J.Int s.s_failed);
      ("resource_out", J.Int s.s_resource_out);
      ("errors", J.Int s.s_errors);
      ("cache_hits", J.Int s.s_cache_hits);
      ("retries", J.Int s.s_retries);
      ("healed", J.Int s.s_healed);
      ("raced", J.Int s.s_raced);
      ("rate_per_s", J.Float s.s_rate_per_s);
      ("eta_s", match s.s_eta_s with Some e -> J.Float e | None -> J.Null);
      ("in_flight", J.List (List.map fly s.s_in_flight)) ]

(* ---- the status socket ---- *)

type server = {
  sv_sock : Unix.file_descr;
  sv_path : string;
  sv_stop : bool Atomic.t;
  sv_domain : unit Domain.t;
}

let serve t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 8
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let stop = Atomic.make false in
  (* One snapshot per connection, then close — the dead-simple protocol a
     shell client can drive. The accept loop polls via select so shutdown
     never depends on close() waking a blocked accept. *)
  let rec loop () =
    if not (Atomic.get stop) then begin
      match Unix.select [ sock ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
        (match Unix.accept sock with
         | fd, _ ->
           (try
              let s =
                Obs.Json.to_string_pretty (snapshot_json t) ^ "\n"
              in
              let b = Bytes.of_string s in
              ignore (Unix.write fd b 0 (Bytes.length b))
            with _ -> ());
           (try Unix.close fd with Unix.Unix_error _ -> ())
         | exception Unix.Unix_error _ -> ());
        loop ()
      | exception Unix.Unix_error _ -> ()
    end
  in
  { sv_sock = sock; sv_path = path; sv_stop = stop;
    sv_domain = Domain.spawn loop }

let shutdown sv =
  Atomic.set sv.sv_stop true;
  Domain.join sv.sv_domain;
  (try Unix.close sv.sv_sock with Unix.Unix_error _ -> ());
  (try Unix.unlink sv.sv_path with Unix.Unix_error _ -> ())
