type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  alloc_mw : float;
  tid : int;
  args : (string * string) list;
}

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : int array;
}

(* Log-scale upper bounds shared by every histogram; the final bucket is the
   overflow (> last bound). Seconds-flavoured, but any unit works. *)
let bucket_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

let n_buckets = Array.length bucket_bounds + 1

type report = {
  wall_s : float;
  domains : int;
  counters : (string * int) list;
  hists : (string * hist) list;
  spans : span list;
}

type event = {
  seq : int;
  t_s : float;
  lane : int;
  kind : string;
  ob : string;
  key : string;
  detail : string;
}

type progress = {
  p_engine : string;
  p_step : int;
  p_work : int;
  p_age_s : float;
}

type in_flight = {
  f_lane : int;
  f_obligation : string;
  f_key : string;
  f_engine : string;
  f_attempt : int;
  f_elapsed_s : float;
  f_progress : progress option;
}

type hrec = {
  mutable hr_count : int;
  mutable hr_sum : float;
  mutable hr_min : float;
  mutable hr_max : float;
  hr_buckets : int array;
}

(* A lane's collector buffer and recorder ring each carry the generation of
   the collector or recorder they belong to: a stale one is replaced, and
   the lane registers the new one with its owner. *)
type buf = {
  b_gen : int;
  b_tid : int;
  mutable b_spans : span list;
  b_counters : (string, int) Hashtbl.t;
  b_hists : (string, hrec) Hashtbl.t;
}

(* event [n] of a ring sits at index [n mod capacity]; a write is five
   array stores and a counter bump *)
type ring = {
  r_gen : int;
  r_lane : int;
  r_kind : string array;
  r_ob : string array;
  r_key : string array;
  r_detail : string array;
  r_time : float array;
  mutable r_n : int;  (* events ever recorded in this ring *)
}

(* One lane per domain, numbered by its domain id. Only the owning domain
   writes it, so records never contend; readers tolerate a torn cell. *)
type lane = {
  id : int;
  mutable buf : buf option;
  mutable ring : ring option;
  (* the in-flight cell: [c_ob = ""] while the lane is idle *)
  mutable c_ob : string;
  mutable c_key : string;
  mutable c_engine : string;
  mutable c_attempt : int;
  mutable c_t0 : float;
  mutable c_reporter : string;  (* the engine last reporting, "" if none *)
  mutable c_step : int;
  mutable c_work : int;
  mutable c_stamp : float;
}

type collector = {
  gen : int;
  t0 : float;
  lock : Mutex.t;
  mutable bufs : buf list;
}

type recorder = {
  rc_gen : int;
  rc_cap : int;
  rc_lock : Mutex.t;
  mutable rc_rings : ring list;
}

let current : collector option Atomic.t = Atomic.make None
let recorder : recorder option Atomic.t = Atomic.make None
let generation = Atomic.make 0
let probe = Atomic.make 0

let calls_probe () = Atomic.get probe

(* the lanes of live domains, for {!in_flight}; a finished domain's buffer
   and ring stay with the collector and recorder that hold them *)
let live_lock = Mutex.create ()
let live : lane list ref = ref []

let lane_key =
  Domain.DLS.new_key (fun () ->
      let l =
        { id = (Domain.self () :> int); buf = None; ring = None; c_ob = "";
          c_key = ""; c_engine = ""; c_attempt = 0; c_t0 = 0.0;
          c_reporter = ""; c_step = 0; c_work = 0; c_stamp = 0.0 }
      in
      Mutex.protect live_lock (fun () -> live := l :: !live);
      Domain.at_exit (fun () ->
          Mutex.protect live_lock (fun () ->
              live := List.filter (fun l' -> l' != l) !live));
      l)

let lane () = Domain.DLS.get lane_key

let buf_of c =
  let l = lane () in
  match l.buf with
  | Some b when b.b_gen = c.gen -> b
  | Some _ | None ->
    let b =
      { b_gen = c.gen; b_tid = l.id; b_spans = [];
        b_counters = Hashtbl.create 64; b_hists = Hashtbl.create 16 }
    in
    Mutex.protect c.lock (fun () -> c.bufs <- b :: c.bufs);
    l.buf <- Some b;
    b

let start () =
  let gen = 1 + Atomic.fetch_and_add generation 1 in
  Atomic.set current
    (Some { gen; t0 = Unix.gettimeofday (); lock = Mutex.create (); bufs = [] })

let active () = Atomic.get current <> None

let count ?(n = 1) name =
  Atomic.incr probe;
  match Atomic.get current with
  | None -> ()
  | Some c ->
    let b = buf_of c in
    (match Hashtbl.find_opt b.b_counters name with
     | Some v -> Hashtbl.replace b.b_counters name (v + n)
     | None -> Hashtbl.replace b.b_counters name n)

let observe name v =
  Atomic.incr probe;
  match Atomic.get current with
  | None -> ()
  | Some c ->
    let b = buf_of c in
    let h =
      match Hashtbl.find_opt b.b_hists name with
      | Some h -> h
      | None ->
        let h =
          { hr_count = 0; hr_sum = 0.0; hr_min = infinity;
            hr_max = neg_infinity; hr_buckets = Array.make n_buckets 0 }
        in
        Hashtbl.add b.b_hists name h;
        h
    in
    h.hr_count <- h.hr_count + 1;
    h.hr_sum <- h.hr_sum +. v;
    if v < h.hr_min then h.hr_min <- v;
    if v > h.hr_max then h.hr_max <- v;
    let n = Array.length bucket_bounds in
    let rec idx i = if i >= n || v <= bucket_bounds.(i) then i else idx (i + 1) in
    let i = idx 0 in
    h.hr_buckets.(i) <- h.hr_buckets.(i) + 1

let span ?(cat = "default") ?(args = []) name f =
  Atomic.incr probe;
  match Atomic.get current with
  | None -> f ()
  | Some c ->
    let b = buf_of c in
    let t0 = Unix.gettimeofday () in
    let a0 = Gc.minor_words () in
    let record () =
      let t1 = Unix.gettimeofday () in
      b.b_spans <-
        { name; cat; ts_us = (t0 -. c.t0) *. 1e6;
          dur_us = (t1 -. t0) *. 1e6;
          alloc_mw = Gc.minor_words () -. a0; tid = b.b_tid; args }
        :: b.b_spans
    in
    (match f () with
     | v ->
       record ();
       v
     | exception e ->
       record ();
       raise e)

let stop () =
  match Atomic.get current with
  | None -> { wall_s = 0.0; domains = 0; counters = []; hists = []; spans = [] }
  | Some c ->
    Atomic.set current None;
    (* recording domains have either finished (the campaign joined its pool)
       or will harmlessly keep writing to buffers we snapshot here *)
    Mutex.lock c.lock;
    let bufs = c.bufs in
    Mutex.unlock c.lock;
    let merged = Hashtbl.create 64 in
    List.iter
      (fun b ->
        Hashtbl.iter
          (fun k v ->
            match Hashtbl.find_opt merged k with
            | Some v0 -> Hashtbl.replace merged k (v0 + v)
            | None -> Hashtbl.replace merged k v)
          b.b_counters)
      bufs;
    let counters =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])
    in
    let merged_h : (string, hrec) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun b ->
        Hashtbl.iter
          (fun k (h : hrec) ->
            match Hashtbl.find_opt merged_h k with
            | Some m ->
              m.hr_count <- m.hr_count + h.hr_count;
              m.hr_sum <- m.hr_sum +. h.hr_sum;
              if h.hr_min < m.hr_min then m.hr_min <- h.hr_min;
              if h.hr_max > m.hr_max then m.hr_max <- h.hr_max;
              Array.iteri
                (fun i n -> m.hr_buckets.(i) <- m.hr_buckets.(i) + n)
                h.hr_buckets
            | None ->
              Hashtbl.replace merged_h k
                { hr_count = h.hr_count; hr_sum = h.hr_sum; hr_min = h.hr_min;
                  hr_max = h.hr_max; hr_buckets = Array.copy h.hr_buckets })
          b.b_hists)
      bufs;
    let hists =
      List.sort compare
        (Hashtbl.fold
           (fun k (h : hrec) acc ->
             ( k,
               { h_count = h.hr_count; h_sum = h.hr_sum;
                 h_min = (if h.hr_count = 0 then 0.0 else h.hr_min);
                 h_max = (if h.hr_count = 0 then 0.0 else h.hr_max);
                 h_buckets = h.hr_buckets } )
             :: acc)
           merged_h [])
    in
    let spans =
      List.sort
        (fun a b -> compare (a.ts_us, a.tid, a.name) (b.ts_us, b.tid, b.name))
        (List.concat_map (fun b -> b.b_spans) bufs)
    in
    { wall_s = Unix.gettimeofday () -. c.t0;
      domains = List.length bufs; counters; hists; spans }

let counter r name =
  match List.assoc_opt name r.counters with Some v -> v | None -> 0

let hist r name = List.assoc_opt name r.hists

(* ---- the flight recorder ---- *)

let ring_of rc l =
  match l.ring with
  | Some r when r.r_gen = rc.rc_gen -> r
  | Some _ | None ->
    let strings () = Array.make rc.rc_cap "" in
    let r =
      { r_gen = rc.rc_gen; r_lane = l.id; r_kind = strings ();
        r_ob = strings (); r_key = strings (); r_detail = strings ();
        r_time = Array.make rc.rc_cap 0.0; r_n = 0 }
    in
    Mutex.protect rc.rc_lock (fun () -> rc.rc_rings <- r :: rc.rc_rings);
    l.ring <- Some r;
    r

let recorder_start ?(capacity = 512) () =
  if capacity < 1 then
    invalid_arg "Telemetry.recorder_start: capacity must be >= 1";
  let rc_gen = 1 + Atomic.fetch_and_add generation 1 in
  Atomic.set recorder
    (Some { rc_gen; rc_cap = capacity; rc_lock = Mutex.create ();
            rc_rings = [] })

let recorder_stop () = Atomic.set recorder None
let recording () = Atomic.get recorder <> None

let event ?(detail = "") kind =
  Atomic.incr probe;
  match Atomic.get recorder with
  | None -> ()
  | Some rc ->
    let l = lane () in
    let r = ring_of rc l in
    let i = r.r_n mod rc.rc_cap in
    r.r_kind.(i) <- kind;
    r.r_ob.(i) <- l.c_ob;
    r.r_key.(i) <- l.c_key;
    r.r_detail.(i) <- detail;
    r.r_time.(i) <- Unix.gettimeofday ();
    r.r_n <- r.r_n + 1

let rings () =
  match Atomic.get recorder with
  | None -> []
  | Some rc -> Mutex.protect rc.rc_lock (fun () -> rc.rc_rings)

let events () =
  (* Recording domains may still be writing; a torn event in a live ring
     is tolerable for a crash dump, and quiesced rings (the common dump
     situation) merge exactly. *)
  let of_ring r =
    let cap = Array.length r.r_kind in
    let n = r.r_n in
    let kept = min n cap in
    List.init kept (fun j ->
        let seq = n - kept + j in
        let i = seq mod cap in
        { seq; t_s = r.r_time.(i); lane = r.r_lane; kind = r.r_kind.(i);
          ob = r.r_ob.(i); key = r.r_key.(i); detail = r.r_detail.(i) })
  in
  List.concat_map of_ring (rings ())
  |> List.sort (fun a b ->
         compare (a.t_s, a.lane, a.seq) (b.t_s, b.lane, b.seq))

let dropped () =
  List.fold_left
    (fun acc r -> acc + max 0 (r.r_n - Array.length r.r_kind))
    0 (rings ())

let flight_json ~reason () =
  let evs = events () in
  let cap = match Atomic.get recorder with Some rc -> rc.rc_cap | None -> 0 in
  let lanes =
    List.sort_uniq compare (List.map (fun e -> e.lane) evs) |> List.length
  in
  Json.Obj
    [ ("schema", Json.String "dicheck-flight-v2");
      ("reason", Json.String reason);
      ("dumped_at_unix", Json.Float (Unix.gettimeofday ()));
      ("capacity", Json.Int cap);
      ("lanes", Json.Int lanes);
      ("dropped", Json.Int (dropped ()));
      ("events",
       Json.List
         (List.map
            (fun e ->
              Json.Obj
                [ ("seq", Json.Int e.seq);
                  ("lane", Json.Int e.lane);
                  ("t", Json.Float e.t_s);
                  ("kind", Json.String e.kind);
                  ("ob", Json.String e.ob);
                  ("key", Json.String e.key);
                  ("detail", Json.String e.detail) ])
            evs)) ]

let dump_flight ~reason path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_pretty (flight_json ~reason ()));
      output_char oc '\n')

(* ---- the in-flight cell ---- *)

let begin_obligation ~ob ~key ~engine ~attempt =
  let l = lane () in
  l.c_ob <- ob;
  l.c_key <- key;
  l.c_engine <- engine;
  l.c_attempt <- attempt;
  l.c_t0 <- Unix.gettimeofday ();
  l.c_reporter <- "";
  l.c_step <- 0;
  l.c_work <- 0

let progress ~engine ~step ~work =
  let l = lane () in
  l.c_reporter <- engine;
  l.c_step <- step;
  l.c_work <- work;
  l.c_stamp <- Unix.gettimeofday ()

let end_obligation () =
  let l = lane () in
  l.c_ob <- "";
  l.c_key <- ""

let in_flight () =
  let lanes = Mutex.protect live_lock (fun () -> !live) in
  let now = Unix.gettimeofday () in
  List.filter_map
    (fun l ->
      if l.c_ob = "" then None
      else
        Some
          { f_lane = l.id; f_obligation = l.c_ob; f_key = l.c_key;
            f_engine = l.c_engine; f_attempt = l.c_attempt;
            f_elapsed_s = now -. l.c_t0;
            f_progress =
              (if l.c_reporter = "" then None
               else
                 Some
                   { p_engine = l.c_reporter; p_step = l.c_step;
                     p_work = l.c_work; p_age_s = now -. l.c_stamp }) })
    lanes
  |> List.sort (fun a b -> compare a.f_lane b.f_lane)
