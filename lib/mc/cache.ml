type t = {
  tbl : (string, Engine.outcome) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { tbl = Hashtbl.create 1024; lock = Mutex.create (); hits = 0; misses = 0 }

let with_lock c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let find c ~key =
  let r =
    Obs.Telemetry.span ~cat:"cache" "cache.find" @@ fun () ->
    with_lock c (fun () ->
        match Hashtbl.find_opt c.tbl key with
        | Some o ->
          c.hits <- c.hits + 1;
          Some o
        | None ->
          c.misses <- c.misses + 1;
          None)
  in
  (match r with
   | Some _ -> Obs.Telemetry.count "cache.hit"
   | None -> Obs.Telemetry.count "cache.miss");
  r

let add c ~key o = with_lock c (fun () -> Hashtbl.replace c.tbl key o)

let length c = with_lock c (fun () -> Hashtbl.length c.tbl)
let hits c = c.hits
let misses c = c.misses

(* bump when Engine.outcome (or anything reachable from it) changes shape:
   Marshal gives no type safety across versions *)
let magic = "dicheck-cache-v3\n"

(* atomic: a crash (or SIGKILL) mid-save leaves either the previous cache or
   the new one on disk, never a truncated file that poisons later runs *)
let save c path =
  let entries =
    with_lock c (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.tbl [])
  in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (match
     output_string oc magic;
     Marshal.to_channel oc (entries : (string * Engine.outcome) list) [];
     flush oc;
     (try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
     close_out oc
   with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let corrupt what =
      Printf.eprintf
        "warning: result cache %s is %s; starting from an empty cache\n%!"
        path what;
      None
    in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (String.length magic) with
        | tag when tag = magic -> (
          match (Marshal.from_channel ic : (string * Engine.outcome) list) with
          | entries ->
            let c = create () in
            List.iter (fun (k, v) -> Hashtbl.replace c.tbl k v) entries;
            Some c
          | exception _ -> corrupt "truncated or corrupt")
        | _ -> corrupt "from another format version"
        | exception End_of_file -> corrupt "truncated")

let load_or_create path =
  match load path with Some c -> c | None -> create ()
