type t = Sequential | Pool of int

module Telemetry = Obs.Telemetry

(* Per-worker telemetry: one span covering the worker's whole drain (so each
   pool domain gets a lane in the trace) plus utilization counters. [run]
   executes one item and returns its wall time; item work itself shows up as
   the obligation spans nested inside the worker span. The lane is idle
   again once an item ends, however it ends. *)
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

let sequential = Sequential
let pool ~jobs = if jobs <= 1 then Sequential else Pool jobs
let of_jobs = function None -> Sequential | Some j -> pool ~jobs:j
let jobs = function Sequential -> 1 | Pool n -> n

(* One contiguous index range per worker: the owner pops from [lo], thieves
   pop from [hi], so an owner keeps cache-friendly front-to-back order and
   stealing takes the work the owner would reach last. *)
type range = { mutable lo : int; mutable hi : int; lock : Mutex.t }

let locked r f =
  Mutex.lock r.lock;
  let v = f r in
  Mutex.unlock r.lock;
  v

let pop_own r =
  locked r (fun r ->
      if r.lo < r.hi then begin
        let i = r.lo in
        r.lo <- i + 1;
        Some i
      end
      else None)

let steal r =
  locked r (fun r ->
      if r.lo < r.hi then begin
        r.hi <- r.hi - 1;
        Some r.hi
      end
      else None)

let remaining r = locked r (fun r -> r.hi - r.lo)

let parallel_map_result ~workers f xs =
  let n = Array.length xs in
  let ranges =
    Array.init workers (fun w ->
        { lo = w * n / workers; hi = (w + 1) * n / workers;
          lock = Mutex.create () })
  in
  let results = Array.make n None in
  let rec next w =
    match pop_own ranges.(w) with
    | Some i -> Some i
    | None ->
      (* steal from whichever other range has the most left; rescan on a
         lost race until everything is empty *)
      let victim = ref (-1) and best = ref 0 in
      Array.iteri
        (fun v r ->
          if v <> w then begin
            let rem = remaining r in
            if rem > !best then begin
              best := rem;
              victim := v
            end
          end)
        ranges;
      if !victim < 0 then None
      else (match steal ranges.(!victim) with
            | Some i -> Some i
            | None -> next w)
  in
  let worker w () =
    with_worker_telemetry ~w (fun run ->
        let rec loop () =
          match next w with
          | None -> ()
          | Some i ->
            results.(i) <-
              Some
                (match run (fun () -> f xs.(i)) with
                 | v -> Ok v
                 | exception e -> Error e);
            loop ()
        in
        loop ())
  in
  let helpers =
    Array.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1)))
  in
  worker 0 ();
  Array.iter Domain.join helpers;
  Array.map (function Some r -> r | None -> assert false) results

let map_result t f xs =
  match t with
  | Sequential ->
    let results = ref [||] in
    with_worker_telemetry ~w:0 (fun run ->
        results :=
          Array.map
            (fun x ->
              match run (fun () -> f x) with
              | v -> Ok v
              | exception e -> Error e)
            xs);
    !results
  | Pool j ->
    let n = Array.length xs in
    if n = 0 then [||] else parallel_map_result ~workers:(min j n) f xs

(* ---- speculative task groups (portfolio racing) ---- *)

type ('b, 'c) group =
  | Done of 'c
  | Race of {
      attempts : int;
      run : int -> cancel:(unit -> bool) -> 'b;
      conclusive : 'b -> bool;
      combine : 'b list -> 'c;
    }

let tick ?n name = if Telemetry.active () then Telemetry.count ?n name

(* An attempt decides its group if it is conclusive or crashed: either way
   no higher-indexed sibling can appear in the attributed prefix, so they
   are cancelled. *)
let deciding conclusive = function Ok b -> conclusive b | Error _ -> true

(* Sequential semantics: the reference the racing scheduler must agree
   with. Attempts run in index order until one decides; the combined value
   covers exactly the attempts that ran. *)
let race_seq open_ xs =
  let results = ref [||] in
  with_worker_telemetry ~w:0 (fun run ->
      results :=
        Array.map
          (fun x ->
            match
              run (fun () ->
                  match open_ x with
                  | Done c -> Ok c
                  | Race r ->
                    tick "exec.race_groups";
                    let rec go acc k =
                      if k >= r.attempts then Ok (r.combine (List.rev acc))
                      else begin
                        tick "exec.race_attempts";
                        match r.run k ~cancel:(fun () -> false) with
                        | b when r.conclusive b ->
                          Ok (r.combine (List.rev (b :: acc)))
                        | b -> go (b :: acc) (k + 1)
                        | exception e -> Error e
                      end
                    in
                    go [] 0)
            with
            | v -> v
            | exception e -> Error e)
          xs);
  !results

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

(* The racing scheduler. One lock + condition guards all bookkeeping;
   attempt bodies run unlocked with a per-attempt cancel hook reading the
   group's [cancel_from] atomic. Dispatch policy: a free worker takes the
   next undispatched, uncancelled attempt of the oldest open group, so a
   group's attempts start in index order, at most [workers] at once.
   Started groups are preferred over opening new ones, so hard obligations
   get their racers early instead of at the tail. *)
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
        if i >= g.g_attempts then Some (`Combine (List.rev acc))
        else
          match g.g_results.(i) with
          | None -> None
          | Some (Error e) -> Some (`Err e)
          | Some (Ok b) ->
            if g.g_conclusive b then Some (`Combine (List.rev (b :: acc)))
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
        Mutex.lock lock;
        let rec loop () =
          match pick () with
          | None -> Mutex.unlock lock
          | Some (`Open i) -> (
            Mutex.unlock lock;
            (* [run] is monomorphic within the worker body, so both the
               opener and the attempts thread their results through refs
               and call it at type [unit]. *)
            let opened = ref None in
            match
              run (fun () -> opened := Some (open_ xs.(i)));
              Option.get !opened
            with
            | exception e ->
              results.(i) <- Some (Error e);
              Mutex.lock lock;
              decr unsettled;
              Condition.broadcast cond;
              loop ()
            | Done c ->
              results.(i) <- Some (Ok c);
              Mutex.lock lock;
              decr unsettled;
              Condition.broadcast cond;
              loop ()
            | Race r when r.attempts <= 0 ->
              results.(i) <-
                Some
                  (match r.combine [] with
                   | c -> Ok c
                   | exception e -> Error e);
              Mutex.lock lock;
              decr unsettled;
              Condition.broadcast cond;
              loop ()
            | Race r ->
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
            let res =
              let out = ref None in
              match
                run (fun () -> out := Some (g.g_run a ~cancel));
                Option.get !out
              with
              | b -> Ok b
              | exception e -> Error e
            in
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
               let value =
                 match outcome with
                 | `Err e -> Error e
                 | `Combine bs -> (
                   match g.g_combine bs with
                   | c -> Ok c
                   | exception e -> Error e)
               in
               results.(g.g_item) <- Some value;
               Mutex.lock lock;
               decr unsettled;
               Condition.broadcast cond;
               loop ())
        in
        loop ())
  in
  let helpers =
    Array.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1)))
  in
  worker 0 ();
  Array.iter Domain.join helpers;
  Array.map (function Some r -> r | None -> assert false) results

let race_map_result t open_ xs =
  match t with
  | Sequential -> race_seq open_ xs
  | Pool workers ->
    (* unlike [map_result], one item is not one unit of work: a group fans
       out into sibling attempts, so the pool keeps its full worker count
       even when there are fewer items than workers *)
    if Array.length xs = 0 then [||] else race_pool ~workers open_ xs
