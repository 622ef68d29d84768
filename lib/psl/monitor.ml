exception Unsupported of string

module E = Rtl.Expr
module M = Rtl.Mdl

type instrumented = {
  mdl : M.t;
  fail_signal : string;
  assume_fail_now : string;
  assume_failed_before : string;
  invariant_ok : string;
}

(* One monitor being woven: the widths of the module's signals, which are
   all a property may read, and the monitor's own wires, assigns and
   registers, newest first. *)
type state = {
  width : string -> int;
  prefix : string;
  mutable fresh : int;
  mutable wires : (string * int) list;
  mutable assigns : M.assign list;
  mutable regs : M.reg list;
}

let fresh_name st stem =
  let n = st.fresh in
  st.fresh <- n + 1;
  Printf.sprintf "%s_%s%d" st.prefix stem n

let declare_wire st name e =
  st.wires <- (name, 1) :: st.wires;
  st.assigns <- { M.lhs = name; rhs = e } :: st.assigns

(* a 1-bit monitor register with the given next function, reset to 0 *)
let declare_reg st name next =
  st.regs <-
    { M.reg_name = name; reg_width = 1; reset_value = Bitvec.zero 1; next;
      reg_class = M.Plain; parity_protected = false }
    :: st.regs

let add_wire st stem e =
  let name = fresh_name st stem in
  declare_wire st name e;
  E.var name

let add_delay st next =
  let name = fresh_name st "r" in
  declare_reg st name next;
  E.var name

let rec bexpr_of_pure (f : Ast.fl) =
  match f with
  | Ast.Bool e -> Some e
  | Ast.Not f ->
    Option.map (fun e -> E.( !: ) e) (bexpr_of_pure f)
  | Ast.And (f, g) -> (
    match (bexpr_of_pure f, bexpr_of_pure g) with
    | Some a, Some b -> Some E.(a &: b)
    | _, _ -> None)
  | Ast.Or (f, g) -> (
    match (bexpr_of_pure f, bexpr_of_pure g) with
    | Some a, Some b -> Some E.(a |: b)
    | _, _ -> None)
  | Ast.Implies (f, g) -> (
    match (bexpr_of_pure f, bexpr_of_pure g) with
    | Some a, Some b -> Some E.(!:a |: b)
    | _, _ -> None)
  | Ast.Next _ | Ast.Next_n _ | Ast.Always _ | Ast.Never _ | Ast.Until _
  | Ast.Seq_implies _ | Ast.Eventually _ ->
    None

let check_one_bit st e =
  match E.width ~env:st.width e with
  | 1 -> ()
  | w ->
    raise
      (Unsupported
         (Printf.sprintf "boolean layer expression %s has width %d, expected 1"
            (E.to_string e) w))
  | exception Invalid_argument msg -> raise (Unsupported msg)
  | exception Not_found ->
    raise
      (Unsupported
         (Printf.sprintf "property references undeclared signal in %s"
            (E.to_string e)))

(* [compile st act f] returns the fail expression of [f] under activation
   signal [act]: high in exactly the cycles where an obligation created by an
   activation is violated. *)
let rec compile st (act : E.t) (f : Ast.fl) : E.t =
  match bexpr_of_pure f with
  | Some b ->
    check_one_bit st b;
    E.(act &: !:b)
  | None -> (
    match f with
    | Ast.Bool _ -> assert false (* handled by bexpr_of_pure *)
    | Ast.Not _ ->
      raise (Unsupported "negation of a temporal formula is not a safety form")
    | Ast.And (f, g) ->
      let fail_f = compile st act f in
      let fail_g = compile st act g in
      E.(fail_f |: fail_g)
    | Ast.Or (f, g) -> (
      match bexpr_of_pure f with
      | Some b ->
        check_one_bit st b;
        compile st E.(act &: !:b) g
      | None -> (
        match bexpr_of_pure g with
        | Some b ->
          check_one_bit st b;
          compile st E.(act &: !:b) f
        | None ->
          raise
            (Unsupported
               "disjunction of two temporal formulas is not monitorable")))
    | Ast.Implies (f, g) -> (
      match bexpr_of_pure f with
      | Some b ->
        check_one_bit st b;
        compile st E.(act &: b) g
      | None ->
        raise (Unsupported "implication with a temporal antecedent"))
    | Ast.Next f ->
      let act' = add_delay st act in
      compile st act' f
    | Ast.Next_n (n, f) ->
      if n < 0 then raise (Unsupported "negative next[n]");
      let rec delay act k = if k = 0 then act else delay (add_delay st act) (k - 1) in
      compile st (delay act n) f
    | Ast.Always f ->
      (* once activated, active forever *)
      let latched = fresh_name st "always" in
      declare_reg st latched E.(var latched |: act);
      compile st E.(var latched |: act) f
    | Ast.Never f -> (
      match bexpr_of_pure f with
      | Some b -> compile st act (Ast.Always (Ast.Bool E.(!:b)))
      | None -> raise (Unsupported "never of a temporal formula"))
    | Ast.Until (p, q) -> (
      match bexpr_of_pure q with
      | Some bq ->
        check_one_bit st bq;
        (* weak until: while the region is open and q has not yet held,
           p is obligated this cycle *)
        let region = fresh_name st "until" in
        declare_reg st region E.((var region |: act) &: !:bq);
        let open_now = add_wire st "region" E.(var region |: act) in
        compile st E.(open_now &: !:bq) p
      | None -> raise (Unsupported "until with a temporal right operand"))
    | Ast.Seq_implies (sere, overlap, g) -> (
      (* fixed-length SERE match pipeline: m_i is high when the first i+1
         obligations matched ending now; the consequent activates at the
         match end (|->) or one cycle later (|=>) *)
      match Ast.expand_sere sere with
      | [] -> assert false (* expand_sere returns at least one element *)
      | b0 :: rest ->
        check_one_bit st b0;
        let m0 = E.(act &: b0) in
        let m_end =
          List.fold_left
            (fun m b ->
              check_one_bit st b;
              E.(add_delay st m &: b))
            m0 rest
        in
        let act' = if overlap then m_end else add_delay st m_end in
        compile st act' g)
    | Ast.Eventually _ ->
      raise
        (Unsupported
           "eventually! is a liveness property; the data-integrity \
            methodology uses the safety subset only"))

let weaver mdl =
  let width = M.widths mdl in
  let names = List.map fst (M.declared_signals mdl) in
  fun ~prefix ~assert_ ~assumes ->
    Option.iter
      (fun name ->
        invalid_arg
          (Printf.sprintf "Monitor.instrument: prefix %s collides with signal %s"
             prefix name))
      (List.find_opt (fun name -> String.starts_with ~prefix name) names);
    let st =
      { width; prefix; fresh = 0; wires = []; assigns = []; regs = [] }
    in
    (* activation pulse: high in the first cycle after reset only *)
    let first_done = fresh_name st "started" in
    declare_reg st first_done E.tru;
    let act0 = E.(!:(var first_done)) in
    let fail_e = compile st act0 assert_ in
    let assume_fails = List.map (fun a -> compile st act0 a) assumes in
    let fail_signal = prefix ^ "_fail" in
    declare_wire st fail_signal fail_e;
    let assume_fail_now = prefix ^ "_assume_fail" in
    declare_wire st assume_fail_now
      (List.fold_left (fun acc e -> E.(acc |: e)) E.fls assume_fails);
    let assume_failed_before = prefix ^ "_assume_failed_q" in
    declare_reg st assume_failed_before
      E.(var assume_failed_before |: var assume_fail_now);
    let invariant_ok = prefix ^ "_ok" in
    declare_wire st invariant_ok
      E.(!:(var fail_signal
            &: !:(var assume_fail_now)
            &: !:(var assume_failed_before)));
    { mdl =
        { (M.create prefix) with
          M.wires = List.rev st.wires;
          assigns = List.rev st.assigns;
          regs = List.rev st.regs };
      fail_signal; assume_fail_now; assume_failed_before; invariant_ok }

let instrument mdl ~prefix ~assert_ ~assumes =
  let inst = weaver mdl ~prefix ~assert_ ~assumes in
  { inst with mdl = M.append mdl [ inst.mdl ] }
