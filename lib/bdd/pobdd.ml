type partition = { window : Bdd.t; part : Bdd.t }
type t = partition list

let windows m vars =
  let rec go = function
    | [] -> [ Bdd.one m ]
    | v :: rest ->
      let sub = go rest in
      List.concat_map
        (fun w ->
          [ Bdd.and_ m (Bdd.nvar m v) w; Bdd.and_ m (Bdd.var m v) w ])
        sub
  in
  (* [go] puts the first variable as the most significant split *)
  go vars

let decompose m ~windows f =
  List.map (fun w -> { window = w; part = Bdd.and_ m w f }) windows

let recombine m t =
  List.fold_left (fun acc p -> Bdd.or_ m acc p.part) (Bdd.zero m) t

let peak_size m t =
  List.fold_left (fun acc p -> max acc (Bdd.size m p.part)) 0 t

let total_size m t =
  List.fold_left (fun acc p -> acc + Bdd.size m p.part) 0 t

let choose_splitting_vars m ~candidates ~k f =
  let rec pick chosen remaining f n =
    if n = 0 || remaining = [] then List.rev chosen
    else begin
      let cost v =
        let lo = Bdd.restrict m v false f and hi = Bdd.restrict m v true f in
        Bdd.size m lo + Bdd.size m hi
      in
      let best =
        List.fold_left
          (fun acc v ->
            let c = cost v in
            match acc with
            | Some (_, best_c) when best_c <= c -> acc
            | Some _ | None -> Some (v, c))
          None remaining
      in
      match best with
      | None -> List.rev chosen
      | Some (v, _) ->
        let remaining = List.filter (fun w -> w <> v) remaining in
        pick (v :: chosen) remaining f (n - 1)
    end
  in
  pick [] candidates f k
