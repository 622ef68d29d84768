(* The benchmark's speed reference: a fixed allocation-bound kernel, timed in
   a process that links none of the verification program's code, so neither
   the program's GC settings nor its heap can change the kernel's speed.

   perf.exe starts one of these and keeps it for a whole run. For every line
   read from standard input it forks a child, which times one run of the
   kernel and prints the time in seconds on standard output; every sample
   thus starts from the same small heap. It exits at end of input. *)

module String_map = Map.Make (String)

let kernel () =
  let tbl = Hashtbl.create 64 in
  for i = 0 to 14_999 do
    Hashtbl.replace tbl (string_of_int (i * 7919 mod 15_013)) i
  done;
  let m = Hashtbl.fold String_map.add tbl String_map.empty in
  let l = String_map.fold (fun k v acc -> (v, k) :: acc) m [] in
  ignore (Sys.opaque_identity (List.sort compare l))

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let () =
  try
    while true do
      ignore (input_line stdin);
      match Unix.fork () with
      | 0 ->
        let t0 = now () in
        kernel ();
        Printf.printf "%.9f\n%!" (now () -. t0);
        Unix._exit 0
      | pid -> ignore (Unix.waitpid [] pid)
    done
  with End_of_file -> ()
