module J = Obs.Json

let quantile xs p =
  match List.sort compare xs with
  | [] -> invalid_arg "Perfkit.quantile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = p *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* per-mille, so "samples beyond" is exact integer arithmetic: in floats
   100 * (1 - 0.9) is just under 10 *)
let tail_percentile n =
  List.fold_left
    (fun best pm -> if n * (1000 - pm) / 1000 >= 10 then Some pm else best)
    None [ 750; 900; 950; 990; 999 ]

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
      | _ -> false)
  && String.for_all ok_char s

type metric = {
  name : string;
  unit_ : string;
  value : float;
  q1 : float;
  q3 : float;
  n : int;
}

let metric name unit_ samples =
  if not (valid_name name) then invalid_arg ("Perfkit.metric: bad name " ^ name);
  if samples = [] then invalid_arg ("Perfkit.metric: no samples for " ^ name);
  { name; unit_; value = median samples; q1 = quantile samples 0.25;
    q3 = quantile samples 0.75; n = List.length samples }

type totals = {
  properties : int;
  proved : int;
  failed : int;
  resource_out : int;
  errors : int;
}

let baseline_row j label =
  let field r k = Option.bind (J.member k r) J.to_int in
  let row =
    Option.bind (Option.bind (J.member "runs" j) J.to_list) (fun rs ->
        List.find_opt
          (fun r -> Option.bind (J.member "label" r) J.to_str = Some label)
          rs)
  in
  Option.bind row (fun r ->
      match
        ( field r "properties", field r "proved", field r "failed",
          field r "resource_out", field r "errors" )
      with
      | Some properties, Some proved, Some failed, Some resource_out,
        Some errors ->
        Some { properties; proved; failed; resource_out; errors }
      | _ -> None)

let oracle ~expected actual ~unexplained_failures =
  let cmp what e a =
    if e = a then [] else [ Printf.sprintf "%s: expected %d, got %d" what e a ]
  in
  cmp "properties" expected.properties actual.properties
  @ cmp "proved" expected.proved actual.proved
  @ cmp "failed" expected.failed actual.failed
  @ cmp "resource_out" expected.resource_out actual.resource_out
  @ cmp "errors" expected.errors actual.errors
  @
  if unexplained_failures = 0 then []
  else
    [ Printf.sprintf "%d failed rows carry no seeded bug" unexplained_failures ]

type record = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  attempted : int;
  failed : int;
  mismatches : string list;
  metrics : metric list;
  raw : metric list;
  wall_samples : float list;
  totals : totals;
}

let correct r = r.failed = 0 && r.mismatches = []

let record_json r =
  let metric_json m =
    ( m.name,
      J.Obj
        [ ("value", J.Float m.value); ("unit", J.String m.unit_);
          ("median", J.Float m.value); ("q1", J.Float m.q1);
          ("q3", J.Float m.q3); ("n", J.Int m.n) ] )
  in
  let t = r.totals in
  let run =
    [ ("label", J.String r.workload) ]
    @ (match List.find_opt (fun m -> m.name = "wall_s") r.metrics with
       | Some m -> [ ("wall_s", J.Float m.value) ]
       | None -> [])
    @ [ ("properties", J.Int t.properties); ("proved", J.Int t.proved);
        ("failed", J.Int t.failed); ("resource_out", J.Int t.resource_out);
        ("errors", J.Int t.errors) ]
  in
  J.Obj
    [ ("schema", J.String "dicheck-perf-v1");
      ("workload", J.String r.workload);
      ("seed", J.Int r.seed);
      ("seconds", J.Int r.seconds);
      ("trace", J.Bool r.traced);
      ("correct", J.Bool (correct r));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("mismatches", J.List (List.map (fun s -> J.String s) r.mismatches));
      ("metrics", J.Obj (List.map metric_json r.metrics));
      ("raw_metrics", J.Obj (List.map metric_json r.raw));
      ("wall_samples_s", J.List (List.map (fun x -> J.Float x) r.wall_samples));
      ("runs", J.List [ J.Obj run ]) ]

let crashed ~workload ~seed ~seconds ~traced msg =
  { workload; seed; seconds; traced; attempted = 1; failed = 1;
    mismatches = [ msg ]; metrics = []; raw = []; wall_samples = [];
    totals =
      { properties = 0; proved = 0; failed = 0; resource_out = 0; errors = 0 } }

let result_line rs =
  let name r m =
    match rs with [ _ ] -> m.name | _ -> r.workload ^ "." ^ m.name
  in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (List.for_all correct rs));
         ("attempted", J.Int (List.fold_left (fun a r -> a + r.attempted) 0 rs));
         ("failed", J.Int (List.fold_left (fun a r -> a + r.failed) 0 rs));
         ("metrics",
          J.Obj
            (List.concat_map
               (fun r ->
                 List.map
                   (fun m ->
                     ( name r m,
                       J.Obj
                         [ ("value", J.Float m.value);
                           ("unit", J.String m.unit_) ] ))
                   r.metrics)
               rs)) ])
