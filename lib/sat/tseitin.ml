type ctx = {
  mutable next_var : int;
  mutable num_clauses : int;
  node_lit : (int, int) Hashtbl.t;  (* Bexpr node id -> literal *)
  mutable const_true : int option;  (* variable forced true, lazily made *)
  on_clause : int list -> unit;  (* the sink every clause goes to *)
}

let create ~on_clause =
  { next_var = 0; num_clauses = 0; node_lit = Hashtbl.create 997;
    const_true = None; on_clause }

let fresh_var ctx =
  ctx.next_var <- ctx.next_var + 1;
  ctx.next_var

let add_clause ctx lits =
  ctx.on_clause lits;
  ctx.num_clauses <- ctx.num_clauses + 1

let assert_lit ctx lit = add_clause ctx [ lit ]

let true_lit ctx =
  match ctx.const_true with
  | Some v -> v
  | None ->
    let v = fresh_var ctx in
    assert_lit ctx v;
    ctx.const_true <- Some v;
    v

let lit_of_bexpr ctx var_map root =
  (* The cache key is the Bexpr node id, so shared nodes encode once. Note
     the cache lives in the context: re-encoding the same DAG is free. *)
  let rec go (e : Rtl.Bexpr.t) =
    match Hashtbl.find_opt ctx.node_lit (Rtl.Bexpr.id e) with
    | Some l -> l
    | None ->
      let l =
        match e.node with
        | Rtl.Bexpr.True -> true_lit ctx
        | Rtl.Bexpr.False -> -true_lit ctx
        | Rtl.Bexpr.Var v -> var_map v
        | Rtl.Bexpr.Not a -> -go a
        | Rtl.Bexpr.And (a, b) ->
          let la = go a and lb = go b in
          let o = fresh_var ctx in
          add_clause ctx [ -o; la ];
          add_clause ctx [ -o; lb ];
          add_clause ctx [ o; -la; -lb ];
          o
        | Rtl.Bexpr.Or (a, b) ->
          let la = go a and lb = go b in
          let o = fresh_var ctx in
          add_clause ctx [ o; -la ];
          add_clause ctx [ o; -lb ];
          add_clause ctx [ -o; la; lb ];
          o
        | Rtl.Bexpr.Xor (a, b) ->
          let la = go a and lb = go b in
          let o = fresh_var ctx in
          add_clause ctx [ -o; la; lb ];
          add_clause ctx [ -o; -la; -lb ];
          add_clause ctx [ o; -la; lb ];
          add_clause ctx [ o; la; -lb ];
          o
        | Rtl.Bexpr.Ite (c, t, f) ->
          let lc = go c and lt = go t and lf = go f in
          let o = fresh_var ctx in
          add_clause ctx [ -o; -lc; lt ];
          add_clause ctx [ -o; lc; lf ];
          add_clause ctx [ o; -lc; -lt ];
          add_clause ctx [ o; lc; -lf ];
          (* redundant but propagation-strengthening clauses *)
          add_clause ctx [ -o; lt; lf ];
          add_clause ctx [ o; -lt; -lf ];
          o
      in
      Hashtbl.replace ctx.node_lit (Rtl.Bexpr.id e) l;
      l
  in
  go root

let num_vars ctx = ctx.next_var
let num_clauses ctx = ctx.num_clauses
