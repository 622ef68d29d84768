type 'meta t = {
  nl : Rtl.Netlist.t;
  ok_signal : string;
  constraint_signal : string option;
  budget : Engine.budget;
  strategy : Engine.strategy;
  meta : 'meta;
}

let prepare ?(budget = Engine.default_budget) ?(strategy = Engine.Auto) mdl
    ~assert_ ~assumes ~meta =
  if not (Rtl.Mdl.is_leaf mdl) then
    invalid_arg
      (Printf.sprintf
         "Obligation.prepare: %s is not a leaf module; the methodology \
          checks leaf modules only"
         mdl.Rtl.Mdl.name);
  let nl, ok_signal, constraint_signal =
    Engine.instrumented_netlist mdl ~assert_ ~assumes
  in
  { nl; ok_signal; constraint_signal; budget; strategy; meta }

let of_prepared ?(budget = Engine.default_budget) ?(strategy = Engine.Auto)
    (nl, ok_signal, constraint_signal) ~meta =
  { nl; ok_signal; constraint_signal; budget; strategy; meta }

let of_vunit ?budget ?strategy mdl vunit ~meta =
  let assumes = List.map snd (Psl.Ast.assumes vunit) in
  List.map
    (fun (prop_name, assert_) ->
      prepare ?budget ?strategy mdl ~assert_ ~assumes ~meta:(meta ~prop_name))
    (Psl.Ast.asserts vunit)

let budget_salt (b : Engine.budget) =
  let lim = function None -> "-" | Some n -> string_of_int n in
  let sec = function None -> "-" | Some s -> Printf.sprintf "%g" s in
  (* the [incremental] marker is appended only when the flag is off: default
     budgets keep the exact salt format (and hence cache keys) of earlier
     releases, while a scratch-mode run can never alias an incremental one *)
  Printf.sprintf "%s/%s/%d/%d/%d/%d/%d/%s%s" (lim b.Engine.bdd_node_limit)
    (lim b.Engine.pobdd_node_limit)
    b.Engine.pobdd_split_vars b.Engine.bmc_depth b.Engine.induction_max_k
    b.Engine.sat_max_conflicts b.Engine.ic3_max_frames
    (sec b.Engine.wall_deadline_s)
    (if b.Engine.incremental then "" else "/noinc")

(* A portfolio's key must cover its members and their budgets — two
   portfolios under one name but different member caps answer different
   questions. The salt is the same whether the portfolio is then raced or
   run sequentially, so racing never changes a cache key. *)
let rec strategy_salt = function
  | Engine.Portfolio p ->
    Printf.sprintf "portfolio:%s[%s]" p.Engine.p_name
      (String.concat ";"
         (List.map
            (fun (m : Engine.member) ->
              Printf.sprintf "%s@%s"
                (strategy_salt m.Engine.m_strategy)
                (budget_salt m.Engine.m_budget))
            p.Engine.p_members))
  | s -> Engine.strategy_name s

(* the strategy-and-budget part of every key *)
let key_salt ~budget ~strategy =
  strategy_salt strategy ^ "|" ^ budget_salt budget

let fingerprint ?salt o =
  let salt =
    key_salt ~budget:o.budget ~strategy:o.strategy
    ^ match salt with None -> "" | Some s -> "|" ^ s
  in
  let roots =
    o.ok_signal
    :: (match o.constraint_signal with Some c -> [ c ] | None -> [])
  in
  Obs.Telemetry.span ~cat:"key" "fingerprint" (fun () ->
      Rtl.Canon.fingerprint ~salt ~roots o.nl)

(* An exact printer of everything a cell's keys depend on: every integer
   is decimal and space-terminated, every string length-prefixed, every
   constructor a one-character tag, so two inputs print the same text only
   when they are equal. Full record patterns and exhaustive matches: a
   field or constructor added to [Rtl.Mdl], [Rtl.Expr] or [Psl.Ast] fails
   to compile here until the digest covers it. The names of the module and
   of the properties are left out: no key depends on them. *)
let cell_digest ?(budget = Engine.default_budget) ?(strategy = Engine.Auto)
    mdl ~props =
  Obs.Telemetry.span ~cat:"key" "cell" @@ fun () ->
  let b = Buffer.create 4096 in
  let tag c = Buffer.add_char b c in
  (* decimal digits straight into the buffer: [string_of_int] allocated
     half the digest's time *)
  let rec digits n =
    if n >= 10 then digits (n / 10);
    tag (Char.unsafe_chr (48 + (n mod 10)))
  in
  let int n =
    if n >= 0 then digits n else Buffer.add_string b (string_of_int n);
    tag ' '
  in
  let str s =
    int (String.length s);
    Buffer.add_string b s
  in
  let list f l =
    int (List.length l);
    List.iter f l
  in
  let rec expr = function
    | Rtl.Expr.Const v ->
      tag 'k';
      Bitvec.add_to_buffer b v
    | Rtl.Expr.Var s ->
      tag 'v';
      str s
    | Rtl.Expr.Unop (op, e) ->
      tag
        (match op with
         | Rtl.Expr.Not -> '~'
         | Rtl.Expr.Red_and -> '&'
         | Rtl.Expr.Red_or -> '|'
         | Rtl.Expr.Red_xor -> '^');
      expr e
    | Rtl.Expr.Binop (op, x, y) ->
      tag
        (match op with
         | Rtl.Expr.And -> 'A'
         | Rtl.Expr.Or -> 'O'
         | Rtl.Expr.Xor -> 'X'
         | Rtl.Expr.Xnor -> 'N'
         | Rtl.Expr.Add -> '+'
         | Rtl.Expr.Sub -> '-'
         | Rtl.Expr.Eq -> '='
         | Rtl.Expr.Ne -> '!'
         | Rtl.Expr.Lt -> '<'
         | Rtl.Expr.Concat -> ',');
      expr x;
      expr y
    | Rtl.Expr.Mux (c, t, e) ->
      tag '?';
      expr c;
      expr t;
      expr e
    | Rtl.Expr.Slice (e, hi, lo) ->
      tag '[';
      int hi;
      int lo;
      expr e
  in
  let rec sere = function
    | Psl.Ast.Sbool e ->
      tag 'b';
      expr e
    | Psl.Ast.Sconcat (r, r') ->
      tag ';';
      sere r;
      sere r'
    | Psl.Ast.Srepeat (r, n) ->
      tag '*';
      int n;
      sere r
  in
  let rec fl = function
    | Psl.Ast.Bool e ->
      tag 'b';
      expr e
    | Psl.Ast.Not f ->
      tag 'n';
      fl f
    | Psl.Ast.And (f, g) ->
      tag 'a';
      fl f;
      fl g
    | Psl.Ast.Or (f, g) ->
      tag 'o';
      fl f;
      fl g
    | Psl.Ast.Implies (f, g) ->
      tag 'i';
      fl f;
      fl g
    | Psl.Ast.Next f ->
      tag 'x';
      fl f
    | Psl.Ast.Next_n (n, f) ->
      tag 'X';
      int n;
      fl f
    | Psl.Ast.Always f ->
      tag 'G';
      fl f
    | Psl.Ast.Never f ->
      tag 'N';
      fl f
    | Psl.Ast.Until (f, g) ->
      tag 'U';
      fl f;
      fl g
    | Psl.Ast.Seq_implies (r, overlap, f) ->
      tag (if overlap then '>' else ')');
      sere r;
      fl f
    | Psl.Ast.Eventually f ->
      tag 'F';
      fl f
  in
  let { Rtl.Mdl.name = _; ports; wires; assigns; regs; instances; attrs } =
    mdl
  in
  int Engine.prep_version;
  str (key_salt ~budget ~strategy);
  list
    (fun { Rtl.Mdl.port_name; dir; port_width } ->
      str port_name;
      tag (match dir with Rtl.Mdl.Input -> 'i' | Rtl.Mdl.Output -> 'o');
      int port_width)
    ports;
  list
    (fun (w, width) ->
      str w;
      int width)
    wires;
  list
    (fun { Rtl.Mdl.lhs; rhs } ->
      str lhs;
      expr rhs)
    assigns;
  list
    (fun { Rtl.Mdl.reg_name; reg_width; reset_value; next; reg_class;
           parity_protected } ->
      str reg_name;
      int reg_width;
      Bitvec.add_to_buffer b reset_value;
      expr next;
      tag
        (match reg_class with
         | Rtl.Mdl.Fsm -> 'f'
         | Rtl.Mdl.Counter -> 'c'
         | Rtl.Mdl.Datapath -> 'd'
         | Rtl.Mdl.Plain -> 'p');
      tag (if parity_protected then 'P' else '-'))
    regs;
  list
    (fun { Rtl.Mdl.inst_name; of_module; connections } ->
      str inst_name;
      str of_module;
      list
        (fun (formal, actual) ->
          str formal;
          match actual with
          | Rtl.Mdl.Expr e ->
            tag 'e';
            expr e
          | Rtl.Mdl.Net n ->
            tag 'n';
            str n)
        connections)
    instances;
  list
    (fun (k, v) ->
      str k;
      str v)
    attrs;
  (* the properties of one vunit share one physical assumption list: a
     property whose list is the one before it prints ['='] instead *)
  int (List.length props);
  ignore
    (List.fold_left
       (fun prev (_, assert_, assumes) ->
         fl assert_;
         if assumes == prev then tag '='
         else begin
           tag 'a';
           list fl assumes
         end;
         assumes)
       [] props);
  Digest.to_hex (Digest.string (Buffer.contents b))

let run o =
  Engine.check_netlist ~budget:o.budget ?constraint_signal:o.constraint_signal
    ~strategy:o.strategy o.nl ~ok_signal:o.ok_signal

let size o =
  let state = Rtl.Netlist.state_bits o.nl in
  let inputs =
    List.fold_left (fun acc (_, w) -> acc + w) 0 o.nl.Rtl.Netlist.inputs
  in
  (state, inputs)
