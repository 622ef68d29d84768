type t = int

module Telemetry = Obs.Telemetry

(* Per-worker telemetry: one span covering the worker's whole drain (so each
   worker domain gets a lane in the trace) plus utilization counters. [run]
   executes one unit of work (an opening or an attempt) and counts its wall
   time as busy; the work itself shows up as the obligation spans nested
   inside the worker span. The lane is idle again once a unit ends, however
   it ends. *)
let with_worker_telemetry ~w body =
  let t0 = Unix.gettimeofday () in
  let busy = ref 0.0 in
  let items = ref 0 in
  Telemetry.event "worker.start" ~detail:(string_of_int w);
  let run f =
    let s = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        busy := !busy +. (Unix.gettimeofday () -. s);
        incr items;
        Telemetry.end_obligation ())
      f
  in
  Telemetry.span ~cat:"exec"
    ~args:[ ("worker", string_of_int w) ]
    "exec.worker"
    (fun () -> body run);
  if Telemetry.active () then begin
    let total = Unix.gettimeofday () -. t0 in
    Telemetry.count ~n:!items "exec.items";
    Telemetry.count ~n:(int_of_float (1e6 *. !busy)) "exec.busy_us";
    Telemetry.count
      ~n:(int_of_float (1e6 *. Float.max 0.0 (total -. !busy)))
      "exec.idle_us"
  end;
  Telemetry.event "worker.done"
    ~detail:(Printf.sprintf "%d items=%d" w !items)

let of_jobs = function Some j when j > 1 -> j | _ -> 1
let jobs t = t

type ('b, 'c) group =
  | Done of 'c
  | Race of {
      attempts : int;
      run : int -> cancel:(unit -> bool) -> 'b;
      conclusive : 'b -> bool;
      combine : 'b list -> 'c;
    }

let tick name = if Telemetry.active () then Telemetry.count name

(* An attempt decides its group if it is conclusive or crashed: either way
   no higher-indexed sibling can appear in the attributed prefix, so they
   are cancelled. *)
let deciding conclusive = function Ok b -> conclusive b | Error _ -> true

type ('b, 'c) gstate = {
  g_item : int;
  g_attempts : int;
  g_run : int -> cancel:(unit -> bool) -> 'b;
  g_conclusive : 'b -> bool;
  g_combine : 'b list -> 'c;
  g_results : ('b, exn) result option array;
  mutable g_next : int;  (* next attempt index to dispatch *)
  g_cancel_from : int Atomic.t;  (* attempts >= this are cancelled *)
  mutable g_cancel_time : float;  (* when cancellation was requested *)
  mutable g_settled : bool;
}

(* The scheduler, at every job count. One lock + condition guards all
   bookkeeping; openings and attempt bodies run unlocked, each attempt with
   a cancel hook reading its group's [cancel_from] atomic. Dispatch policy:
   a free worker takes the next undispatched, uncancelled attempt of the
   oldest open group, so a group's attempts start in index order, at most
   [workers] at once. Started groups are preferred over opening new ones,
   so hard obligations get their racers early instead of at the tail, and
   items open in index order. *)
let race_pool ~workers open_ xs =
  let n = Array.length xs in
  let results = Array.make n None in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let active = ref [] in  (* opened, unsettled groups, ascending item index *)
  let next_open = ref 0 in
  let unsettled = ref n in
  let cancel_latency dt =
    Telemetry.observe "exec.race_cancel_s" dt;
    Telemetry.event "race.cancelled" ~detail:(Printf.sprintf "%.4fs" dt)
  in
  let dispatchable g =
    (not g.g_settled)
    && g.g_next < min g.g_attempts (Atomic.get g.g_cancel_from)
  in
  (* called with the lock held *)
  let rec pick () =
    active := List.filter (fun g -> not g.g_settled) !active;
    match List.find_opt dispatchable !active with
    | Some g ->
      let a = g.g_next in
      g.g_next <- a + 1;
      Some (`Attempt (g, a))
    | None ->
      if !next_open < n then begin
        let i = !next_open in
        incr next_open;
        Some (`Open i)
      end
      else if !unsettled = 0 then None
      else begin
        Condition.wait cond lock;
        pick ()
      end
  in
  (* called with the lock held; the first deciding completed prefix wins *)
  let try_settle g =
    if g.g_settled then None
    else begin
      let rec walk i acc =
        if i >= g.g_attempts then Some (Ok (List.rev acc))
        else
          match g.g_results.(i) with
          | None -> None
          | Some (Error e) -> Some (Error e)
          | Some (Ok b) ->
            if g.g_conclusive b then Some (Ok (List.rev (b :: acc)))
            else walk (i + 1) (b :: acc)
      in
      match walk 0 [] with
      | None -> None
      | Some outcome ->
        g.g_settled <- true;
        Some outcome
    end
  in
  let worker w () =
    with_worker_telemetry ~w (fun run ->
        (* [run] is monomorphic within the worker body, so openers and
           attempts alike call it at type [unit] and hand their result back
           through a ref *)
        let capture f =
          let out = ref (Error Exit) in
          run (fun () ->
              out := match f () with v -> Ok v | exception e -> Error e);
          !out
        in
        (* record item [i]'s value; returns with the lock held *)
        let settle i value =
          results.(i) <- Some value;
          Mutex.lock lock;
          decr unsettled;
          Condition.broadcast cond
        in
        let combined combine bs =
          match combine bs with c -> Ok c | exception e -> Error e
        in
        Mutex.lock lock;
        let rec loop () =
          match pick () with
          | None -> Mutex.unlock lock
          | Some (`Open i) -> (
            Mutex.unlock lock;
            match capture (fun () -> open_ xs.(i)) with
            | Error e -> settle i (Error e); loop ()
            | Ok (Done c) -> settle i (Ok c); loop ()
            | Ok (Race r) when r.attempts <= 0 ->
              settle i (combined r.combine []); loop ()
            | Ok (Race r) ->
              tick "exec.race_groups";
              let g =
                { g_item = i; g_attempts = r.attempts; g_run = r.run;
                  g_conclusive = r.conclusive; g_combine = r.combine;
                  g_results = Array.make r.attempts None; g_next = 0;
                  g_cancel_from = Atomic.make max_int;
                  g_cancel_time = 0.0; g_settled = false }
              in
              Mutex.lock lock;
              active := !active @ [ g ];
              Condition.broadcast cond;
              loop ())
          | Some (`Attempt (g, a)) ->
            Mutex.unlock lock;
            tick "exec.race_attempts";
            let cancel () = Atomic.get g.g_cancel_from <= a in
            let res = capture (fun () -> g.g_run a ~cancel) in
            Mutex.lock lock;
            g.g_results.(a) <- Some res;
            if Atomic.get g.g_cancel_from <= a then begin
              (* a cancelled loser unwinding: how long did it take to let
                 go after the winner concluded? *)
              tick "exec.race_cancelled";
              cancel_latency (Unix.gettimeofday () -. g.g_cancel_time)
            end;
            if
              deciding g.g_conclusive res
              && a + 1 < Atomic.get g.g_cancel_from
            then begin
              if Atomic.get g.g_cancel_from = max_int then
                g.g_cancel_time <- Unix.gettimeofday ();
              Atomic.set g.g_cancel_from (a + 1)
            end;
            (match try_settle g with
             | None ->
               Condition.broadcast cond;
               loop ()
             | Some outcome ->
               Mutex.unlock lock;
               settle g.g_item (Result.bind outcome (combined g.g_combine));
               loop ())
        in
        loop ())
  in
  (* at one job the calling domain is the only worker *)
  let helpers =
    Array.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1)))
  in
  worker 0 ();
  Array.iter Domain.join helpers;
  Array.map (function Some r -> r | None -> assert false) results

(* one item is not one unit of work: a group fans out into sibling
   attempts, so the pool keeps its full worker count even when there are
   fewer items than workers *)
let race_map_result workers open_ xs =
  if Array.length xs = 0 then [||] else race_pool ~workers open_ xs

let map_result t f xs = race_map_result t (fun x -> Done (f x)) xs
