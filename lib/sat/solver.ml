(* CDCL in the MiniSat style. Variables are 0-based internally; literal
   encoding is 2*v for the positive and 2*v+1 for the negative literal.

   Clause storage. Every clause, problem or learnt, lives in one growable
   int array, the arena; a clause reference is its offset there, and
   reasons and conflicts hold offsets (-1 for none). The clause at offset c
   is laid out as

     c      length n
     c+1    chain link of watch slot 0
     c+2    chain link of watch slot 1
     c+3..  its n literals; slots 0 and 1 are the two watched literals

   The clauses watching literal l form a chain threaded through those
   links: watch_head.(l) is the first, the link of the slot holding l in
   that clause names the next, and -1 ends it. The two watched literals are
   distinct, so the slot holding l is found by comparing literals, and when
   the two watches trade slots their links trade with them. Clause intake
   and conflict analysis build their literals in one reusable scratch
   buffer, so propagation, intake and analysis allocate nothing.

   Visiting order. When l becomes false its chain is detached and walked
   from the head, and each clause is pushed onto the head of the chain it
   belongs to next (l's own when it keeps the watch): clauses propagate in
   the order a list of watches per literal, re-consed on every visit, gives
   them. That order fixes every reason, learnt clause and later decision,
   so keeping it keeps the search, and with it the verdicts, traces and
   solver counters the tests pin. Stored problem clauses keep their
   literals ascending and learnt clauses keep analysis order for the same
   reason: both decide which literals are watched first.

   Decision order. A decision takes the unassigned variable of highest
   activity, the lowest index first among equals: a strict total order,
   kept by a max-heap with lazy deletion. Because the order is strict,
   the variables a decision pops (stale assigned ones, then the winner)
   are fixed by the heap's contents alone, so any valid layout decides
   alike and the heap may move its elements however is cheapest. Its
   sifts carry a hole, and a pop sends the hole to a leaf along the
   preceding children before the last element climbs into it. The one
   event that reorders the keys, an activity rescale that underflows some
   activities to 0, rebuilds the heap.

   The solver is persistent/incremental: a [t] keeps its clause database,
   learnt clauses, VSIDS activities and saved phases across
   [solve_assuming] calls, and solving under assumption literals answers
   "is the database satisfiable together with these temporary units"
   without permanently committing them. Assumptions are installed as the
   first decision levels (one level per assumption, pseudo-levels for
   assumptions already implied), exactly like MiniSat: after any backjump
   into the assumption prefix the decision loop re-enqueues the remaining
   assumptions in order, so learnt clauses — which mention assumption
   literals negatively where needed and are therefore implied by the clause
   database alone — can be kept forever. An answer of Unsat under
   assumptions also records the failed assumptions it rests on, read off
   the trail before the solver returns to the root.

   Restart discipline (the retention-killer fixed here): restarts backtrack
   to the assumption prefix, never below it, and neither activities,
   saved phases nor the learnt database are cleared between calls — a
   restart re-orders the search inside one call but must not throw away the
   warm-start state that makes incremental solving pay off. *)

type result = Sat of bool array | Unsat | Unknown

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
}

let zero_stats =
  { decisions = 0; conflicts = 0; propagations = 0; restarts = 0; learned = 0 }

let add_stats a b =
  { decisions = a.decisions + b.decisions;
    conflicts = a.conflicts + b.conflicts;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts; learned = a.learned + b.learned }

type t = {
  mutable nvars : int;       (* highest DIMACS variable seen *)
  mutable cap : int;         (* allocated capacity of the per-var arrays *)
  mutable arena : int array;         (* every clause: header, then literals *)
  mutable arena_size : int;          (* used prefix of [arena] *)
  mutable num_problem_clauses : int; (* clauses added by the intake *)
  mutable watch_head : int array;    (* per literal: first clause, or -1 *)
  mutable scratch : int array;       (* literals of the clause being built *)
  mutable assigns : int array;       (* -1 / 0 / 1 per var *)
  mutable level : int array;
  mutable reason : int array;        (* clause offset or -1 *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  (* trail sizes at decision points, as an explicit stack: trail_lim.(i) is
     the trail size on entry to level i+1 and n_levels is the current
     decision level. A list here made decision_level O(level), and enqueue
     reads the level for every assignment — quadratic per solve once BMC
     unrollings push thousands of decisions. *)
  mutable trail_lim : int array;
  mutable n_levels : int;
  mutable activity : float array;
  mutable var_inc : float;
  (* VSIDS order heap: a max-heap of candidate decision variables keyed by
     (activity desc, var index asc) — the same total order the decision
     rule always used, so the heap picks exactly what a full scan would,
     in O(log n) instead of O(n) per decision. Lazy deletion: assigned
     vars linger until popped; every unassigned var is always present
     (inserted on creation and on unassignment at backtrack). *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;  (* var -> heap slot, -1 when absent *)
  mutable phase : bool array;
  mutable seen : bool array;
  mutable unsat : bool;              (* root-level conflict: unsat forever *)
  mutable failed : int list;         (* the last Unsat's core, DIMACS *)
  mutable n_solves : int;
  (* per-solve work counters: solver-local, so concurrent solves on
     different domains never race (unlike the old stats_last globals) *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learned : int;
}

let neg l = l lxor 1
let var_of l = l lsr 1
let lit_of_var v sign = (v lsl 1) lor (if sign then 0 else 1)

(* clause header words: the length, then the links of watch slots 0 and 1 *)
let header = 3

let create () =
  let cap = 64 in
  { nvars = 0; cap; arena = Array.make 1024 0; arena_size = 0;
    num_problem_clauses = 0; watch_head = Array.make (2 * cap) (-1);
    scratch = Array.make 16 0;
    assigns = Array.make cap (-1); level = Array.make cap 0;
    reason = Array.make cap (-1); trail = Array.make cap 0; trail_size = 0;
    qhead = 0; trail_lim = Array.make cap 0; n_levels = 0;
    activity = Array.make cap 0.0; var_inc = 1.0;
    phase = Array.make cap false; seen = Array.make cap false;
    heap = Array.make cap 0; heap_size = 0; heap_pos = Array.make cap (-1);
    unsat = false; failed = [];
    n_solves = 0; n_decisions = 0; n_conflicts = 0; n_propagations = 0;
    n_restarts = 0; n_learned = 0 }

(* The order heap sifts a hole rather than swapping: the moving variable
   and its activity are read once, each level it passes costs one write,
   and the variable is written once where it stops. Variable [v] precedes
   [u] when its activity is higher, or equal with a lower index. *)
let heap_up t i v =
  let h = t.heap and pos = t.heap_pos and act = t.activity in
  let av = act.(v) in
  let i = ref i and climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) / 2 in
    let u = h.(p) in
    let au = act.(u) in
    if av > au || (av = au && v < u) then begin
      h.(!i) <- u;
      pos.(u) <- !i;
      i := p
    end
    else climbing := false
  done;
  h.(!i) <- v;
  pos.(v) <- !i

(* Of slot i's children below size n (it has at least one), the one that
   precedes. *)
let[@inline] heap_child t n i =
  let l = (2 * i) + 1 in
  if l + 1 < n then begin
    let x = t.heap.(l) and y = t.heap.(l + 1) in
    let ax = t.activity.(x) and ay = t.activity.(y) in
    if ay > ax || (ay = ax && y < x) then l + 1 else l
  end
  else l

let heap_down t i =
  let h = t.heap and pos = t.heap_pos and act = t.activity in
  let n = t.heap_size in
  let v = h.(i) in
  let av = act.(v) in
  let i = ref i and sinking = ref true in
  while !sinking && (2 * !i) + 1 < n do
    let c = heap_child t n !i in
    let u = h.(c) in
    let au = act.(u) in
    if au > av || (au = av && u < v) then begin
      h.(!i) <- u;
      pos.(u) <- !i;
      i := c
    end
    else sinking := false
  done;
  h.(!i) <- v;
  pos.(v) <- !i

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap_size <- t.heap_size + 1;
    heap_up t (t.heap_size - 1) v
  end

(* Bottom-up pop: the hole left at the root descends along the preceding
   child to a leaf, one comparison a level, and the last element fills it
   and climbs. Coming from the bottom, that element rarely climbs far,
   where sifting it down from the root compares it at every level. *)
let heap_pop t =
  let h = t.heap and pos = t.heap_pos in
  let v = h.(0) in
  pos.(v) <- -1;
  let n = t.heap_size - 1 in
  t.heap_size <- n;
  if n > 0 then begin
    let i = ref 0 in
    while (2 * !i) + 1 < n do
      let c = heap_child t n !i in
      let u = h.(c) in
      h.(!i) <- u;
      pos.(u) <- !i;
      i := c
    done;
    heap_up t !i h.(n)
  end;
  v

let heap_rebuild t =
  for i = (t.heap_size / 2) - 1 downto 0 do
    heap_down t i
  done

let grow_to t want =
  let cap = ref t.cap in
  while !cap < want do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let copy_int a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.cap; b
  in
  let watch_head = Array.make (2 * cap) (-1) in
  Array.blit t.watch_head 0 watch_head 0 (2 * t.cap);
  t.watch_head <- watch_head;
  t.assigns <- copy_int t.assigns (-1);
  t.level <- copy_int t.level 0;
  t.reason <- copy_int t.reason (-1);
  t.trail <- copy_int t.trail 0;
  t.trail_lim <- copy_int t.trail_lim 0;
  let activity = Array.make cap 0.0 in
  Array.blit t.activity 0 activity 0 t.cap;
  t.activity <- activity;
  let copy_bool a =
    let b = Array.make cap false in
    Array.blit a 0 b 0 t.cap; b
  in
  t.phase <- copy_bool t.phase;
  t.seen <- copy_bool t.seen;
  t.heap <- copy_int t.heap 0;
  t.heap_pos <- copy_int t.heap_pos (-1);
  t.cap <- cap

let ensure_vars t n =
  if n > t.cap then grow_to t n;
  if n > t.nvars then begin
    for v = t.nvars to n - 1 do
      heap_insert t v
    done;
    t.nvars <- n
  end

(* Room for [n] literals in the scratch buffer. Growth keeps the contents:
   conflict analysis grows the buffer under a half-built learnt clause. *)
let reserve_scratch t n =
  let len = Array.length t.scratch in
  if n > len then begin
    let bigger = Array.make (max n (2 * len)) 0 in
    Array.blit t.scratch 0 bigger 0 len;
    t.scratch <- bigger
  end

let num_vars t = t.nvars
let num_clauses t = t.num_problem_clauses

let[@inline] value t l =
  let a = t.assigns.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = t.n_levels

(* one entry per decision plus one pseudo-level per assumption: assumptions
   can outnumber spare capacity, so the stack grows on its own *)
let push_level t =
  if t.n_levels >= Array.length t.trail_lim then begin
    let bigger = Array.make (2 * Array.length t.trail_lim) 0 in
    Array.blit t.trail_lim 0 bigger 0 t.n_levels;
    t.trail_lim <- bigger
  end;
  t.trail_lim.(t.n_levels) <- t.trail_size;
  t.n_levels <- t.n_levels + 1

(* Put clause [c] at the head of literal [l]'s chain through link cell [s]. *)
let[@inline] push_watch t l c s =
  t.arena.(s) <- t.watch_head.(l);
  t.watch_head.(l) <- c

(* Append the clause in scratch.(0 .. n-1), n >= 2, watching its first two
   literals; returns its offset. *)
let store t n =
  let c = t.arena_size in
  let size = c + header + n in
  if size > Array.length t.arena then begin
    let bigger = Array.make (max size (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 bigger 0 c;
    t.arena <- bigger
  end;
  (* a loop, not Array.blit: the arena lives in the major heap, where a
     blit pays a write barrier per element *)
  let a = t.arena and s = t.scratch in
  a.(c) <- n;
  for i = 0 to n - 1 do
    a.(c + header + i) <- s.(i)
  done;
  t.arena_size <- size;
  push_watch t t.scratch.(0) c (c + 1);
  push_watch t t.scratch.(1) c (c + 2);
  c

let enqueue t l reason =
  match value t l with
  | 1 -> true
  | 0 -> false
  | _ ->
    let v = var_of l in
    t.assigns.(v) <- 1 lxor (l land 1);
    t.level.(v) <- decision_level t;
    t.reason.(v) <- reason;
    t.phase.(v) <- l land 1 = 0;
    t.trail.(t.trail_size) <- l;
    t.trail_size <- t.trail_size + 1;
    true

let lit_of_dimacs l =
  let v = abs l - 1 in
  lit_of_var v (l > 0)

let dimacs_of_lit l = if l land 1 = 0 then var_of l + 1 else -(var_of l + 1)

(* DIMACS input is checked before it touches any state *)
let check_dimacs fn lits =
  if List.exists (fun l -> l = 0) lits then
    invalid_arg (fn ^ ": 0 is not a DIMACS literal")

(* Write a clause's literals into [s] from slot [i]; returns the end. *)
let rec fill s i = function
  | [] -> i
  | l :: rest ->
    s.(i) <- lit_of_dimacs l;
    fill s (i + 1) rest

(* Sort s.(0 .. n-1) ascending in place and drop repeats; returns the new
   length. Insertion sort: encoder clauses are a few literals long. *)
let sort_uniq (s : int array) n =
  for i = 1 to n - 1 do
    let x = s.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && s.(!j) > x do
      s.(!j + 1) <- s.(!j);
      decr j
    done;
    s.(!j + 1) <- x
  done;
  let m = ref (min n 1) in
  for i = 1 to n - 1 do
    if s.(i) <> s.(!m - 1) then begin
      s.(!m) <- s.(i);
      incr m
    end
  done;
  !m

(* The intake core behind both entry points, for the clause in
   scratch.(0 .. n-1). Must be called at decision level 0, i.e. between
   solves. Root-level simplification: literals already false at the root
   are dropped (root assignments are permanent), clauses already true at
   the root are discarded, the empty clause flips the solver into [unsat]
   forever, units are enqueued at the root. The stored clause keeps its
   literals in ascending order. *)
let intake t n =
  let s = t.scratch in
  let n = sort_uniq s n in
  if n > 0 then ensure_vars t (var_of s.(n - 1) + 1);
  (* sorted, a literal and its negation are neighbours *)
  let tautology = ref false and satisfied = ref false in
  for i = 0 to n - 1 do
    if i + 1 < n && neg s.(i) = s.(i + 1) then tautology := true;
    if value t s.(i) = 1 then satisfied := true
  done;
  if not (!tautology || !satisfied) then begin
    let kept = ref 0 in
    for i = 0 to n - 1 do
      if value t s.(i) <> 0 then begin
        s.(!kept) <- s.(i);
        incr kept
      end
    done;
    match !kept with
    | 0 -> t.unsat <- true
    | 1 -> if not (enqueue t s.(0) (-1)) then t.unsat <- true
    | len -> ignore (store t len)
  end

let add_clause t clause =
  check_dimacs "Solver.add_clause" clause;
  t.num_problem_clauses <- t.num_problem_clauses + 1;
  if not t.unsat then begin
    reserve_scratch t (List.length clause);
    intake t (fill t.scratch 0 clause)
  end

let add_clause_slice t buf off len =
  if off < 0 || len < 0 || off > Array.length buf - len then
    invalid_arg "Solver.add_clause_slice: not a slice of the buffer";
  for i = off to off + len - 1 do
    if buf.(i) = 0 then
      invalid_arg "Solver.add_clause_slice: 0 is not a DIMACS literal"
  done;
  t.num_problem_clauses <- t.num_problem_clauses + 1;
  if not t.unsat then begin
    reserve_scratch t len;
    let s = t.scratch in
    for i = 0 to len - 1 do
      s.(i) <- lit_of_dimacs buf.(off + i)
    done;
    intake t len
  end

(* Returns the offset of a conflicting clause, or -1. *)
let propagate t =
  let a = t.arena in
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = neg p in
    let next = ref t.watch_head.(false_lit) in
    t.watch_head.(false_lit) <- -1;
    while !next >= 0 do
      let c = !next in
      if !conflict >= 0 then begin
        (* conflict already found: put the rest back untouched *)
        let s = if a.(c + header) = false_lit then c + 1 else c + 2 in
        next := a.(s);
        push_watch t false_lit c s
      end
      else begin
        (* the false literal goes to slot 1, and its link with it *)
        if a.(c + header) = false_lit then begin
          a.(c + header) <- a.(c + header + 1);
          a.(c + header + 1) <- false_lit;
          let link = a.(c + 1) in
          a.(c + 1) <- a.(c + 2);
          a.(c + 2) <- link
        end;
        next := a.(c + 2);
        let first = a.(c + header) in
        if value t first = 1 then push_watch t false_lit c (c + 2)
        else begin
          let n = a.(c) in
          let k = ref 2 in
          while !k < n && value t a.(c + header + !k) = 0 do
            incr k
          done;
          if !k < n then begin
            let w = a.(c + header + !k) in
            a.(c + header + 1) <- w;
            a.(c + header + !k) <- false_lit;
            push_watch t w c (c + 2)
          end
          else begin
            push_watch t false_lit c (c + 2);
            if not (enqueue t first c) then begin
              conflict := c;
              t.qhead <- t.trail_size
            end
          end
        end
      end
    done
  done;
  !conflict

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    (* Uniform rescale. It keeps the (activity, index) order except where
       an activity underflows to 0: about four rescales after its last
       bump a variable ties with the never-bumped ones, and the index
       then decides. The heap is rebuilt under the new order, so it stays
       valid and the decisions stay those of the order alone. *)
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100;
    heap_rebuild t
  end
  else if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v) v

(* First-UIP analysis of the conflict clause at [confl]. Leaves the learnt
   clause in scratch.(0 .. n-1) and returns n: the negated UIP first, then
   the other literals newest first, except that one of the highest level
   among them is swapped into slot 1, so slot 1's level is the backjump
   level. *)
let analyze t confl =
  let a = t.arena in
  let n = ref 1 in
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_size - 1) in
  let confl = ref confl in
  let current_level = decision_level t in
  let continue = ref true in
  while !continue do
    let c = !confl in
    let start = if !p = -1 then 0 else 1 in
    for i = start to a.(c) - 1 do
      let q = a.(c + header + i) in
      let v = var_of q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump t v;
        if t.level.(v) >= current_level then incr path_count
        else begin
          reserve_scratch t (!n + 1);
          t.scratch.(!n) <- q;
          incr n
        end
      end
    done;
    (* pick the next literal to resolve on: last seen var on the trail *)
    while not t.seen.(var_of t.trail.(!index)) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    t.seen.(var_of !p) <- false;
    decr path_count;
    if !path_count > 0 then confl := t.reason.(var_of !p)
    else continue := false
  done;
  let s = t.scratch and n = !n in
  s.(0) <- neg !p;
  (* reverse slots 1 .. n-1 into newest-first order *)
  for i = 1 to (n - 1) / 2 do
    let x = s.(i) in
    s.(i) <- s.(n - i);
    s.(n - i) <- x
  done;
  for i = 0 to n - 1 do
    t.seen.(var_of s.(i)) <- false
  done;
  let swap_pos = ref 1 in
  for i = 2 to n - 1 do
    if t.level.(var_of s.(i)) > t.level.(var_of s.(!swap_pos)) then
      swap_pos := i
  done;
  if n > 1 then begin
    let x = s.(1) in
    s.(1) <- s.(!swap_pos);
    s.(!swap_pos) <- x
  end;
  n

let backtrack t lvl =
  (* trail_lim.(lvl) is the trail size when level lvl+1 was entered, i.e.
     everything at or above that index belongs to levels > lvl *)
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = var_of t.trail.(i) in
      t.assigns.(v) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.n_levels <- lvl
  end

(* Marks [v] for the final-conflict walk; root assignments need no
   assumption, so they are never marked. *)
let mark_final t v = if t.level.(v) > 0 then t.seen.(v) <- true

(* MiniSat's analyzeFinal: the assumptions the marked variables' values rest
   on, prepended to [core]. Walks the trail from the top down to the first
   assumption level; every open level is an assumption level, so a marked
   assignment without a reason is an assumption, and an implied one marks
   its reason's other variables. Reads the trail and reasons only and
   unmarks as it goes: activities, phases, the heap and [seen] end as they
   were, so the search is unchanged. *)
let final_core t core =
  let a = t.arena in
  let core = ref core in
  let bottom = if t.n_levels > 0 then t.trail_lim.(0) else t.trail_size in
  for i = t.trail_size - 1 downto bottom do
    let l = t.trail.(i) in
    let v = var_of l in
    if t.seen.(v) then begin
      t.seen.(v) <- false;
      let r = t.reason.(v) in
      if r < 0 then core := dimacs_of_lit l :: !core
      else
        for j = 1 to a.(r) - 1 do
          mark_final t (var_of a.(r + header + j))
        done
    end
  done;
  !core

type decide_outcome = All_assigned | Decided | Assumption_false

(* While decision_level < |assumps| the next "decision" is the next
   assumption: levels 1..|assumps| are the assumption prefix, one level per
   assumption even when the literal is already implied (a pseudo-level with
   no trail entries). This indexing is what lets a backjump into the prefix
   self-heal — the next decide call re-examines assumptions from the level
   it landed on. *)
let decide t assumps =
  let dl = decision_level t in
  if dl < Array.length assumps then begin
    let l = assumps.(dl) in
    match value t l with
    | 0 -> Assumption_false
    | 1 ->
      push_level t;
      Decided
    | _ ->
      push_level t;
      let ok = enqueue t l (-1) in
      assert ok;
      Decided
  end
  else begin
    (* pop stale (already assigned) entries until the heap yields the live
       maximum — the same variable a full (activity desc, index asc) scan
       over the unassigned vars would select *)
    let best = ref (-1) in
    while !best < 0 && t.heap_size > 0 do
      let v = heap_pop t in
      if t.assigns.(v) < 0 then best := v
    done;
    if !best < 0 then All_assigned
    else begin
      t.n_decisions <- t.n_decisions + 1;
      push_level t;
      let l = lit_of_var !best t.phase.(!best) in
      let ok = enqueue t l (-1) in
      assert ok;
      Decided
    end
  end

(* The CDCL loop under assumption literals [assumps], from the root; it
   returns with the search's assignments still on the trail. *)
let search ~max_conflicts ~should_stop t assumps =
  let n_assumps = Array.length assumps in
  let conflicts_total = ref 0 in
  let restart_limit = ref 100 in
  let conflicts_since_restart = ref 0 in
  let result = ref None in
  (* poll the stop callback once per [stop_period] search steps: each
     step is one propagate + decide/analyze, so the poll (typically a
     gettimeofday behind a deadline) stays off the hot path *)
  let stop_period = 1024 in
  let stop_fuel = ref stop_period in
  while !result = None do
    decr stop_fuel;
    if !stop_fuel <= 0 then begin
      stop_fuel := stop_period;
      if should_stop () then result := Some Unknown
    end;
    let confl = propagate t in
    if confl >= 0 then begin
      incr conflicts_total;
      incr conflicts_since_restart;
      t.n_conflicts <- t.n_conflicts + 1;
      t.var_inc <- t.var_inc /. 0.95;
      if decision_level t = 0 then begin
        (* conflict under no decisions at all: unsat regardless of
           assumptions, now and forever *)
        t.unsat <- true;
        result := Some Unsat
      end
      else if decision_level t <= n_assumps then begin
        (* every open decision level is an assumption level: the clause
           database refutes the assumption prefix — unsat under these
           assumptions only, the database itself stays consistent *)
        for i = 0 to t.arena.(confl) - 1 do
          mark_final t (var_of t.arena.(confl + header + i))
        done;
        t.failed <- final_core t [];
        result := Some Unsat
      end
      else if !conflicts_total >= max_conflicts then result := Some Unknown
      else begin
        let n = analyze t confl in
        t.n_learned <- t.n_learned + 1;
        backtrack t (if n > 1 then t.level.(var_of t.scratch.(1)) else 0);
        let uip = t.scratch.(0) in
        if n = 1 then begin
          (* a unit learnt backjumps to the root: the enqueue is permanent,
             so the clause itself need not be stored *)
          if not (enqueue t uip (-1)) then begin
            t.unsat <- true;
            result := Some Unsat
          end
        end
        else begin
          let c = store t n in
          let ok = enqueue t uip c in
          assert ok
        end
      end
    end
    else if
      !conflicts_since_restart >= !restart_limit
      && decision_level t > n_assumps
    then begin
      conflicts_since_restart := 0;
      restart_limit := !restart_limit * 3 / 2;
      t.n_restarts <- t.n_restarts + 1;
      (* restart to the assumption prefix, never below: backtracking to 0
         would undo the assumptions (they would be re-installed, but the
         prefix is where the warm search state lives) *)
      backtrack t n_assumps
    end
    else begin
      match decide t assumps with
      | All_assigned ->
        let model = Array.init t.nvars (fun v -> t.assigns.(v) = 1) in
        result := Some (Sat model)
      | Assumption_false ->
        (* the next assumption is already false under the previous ones:
           unsat under assumptions *)
        let p = assumps.(decision_level t) in
        mark_final t (var_of p);
        t.failed <- final_core t [ dimacs_of_lit p ];
        result := Some Unsat
      | Decided -> ()
    end
  done;
  match !result with Some r -> r | None -> assert false

let solve_assuming_stats ?(max_conflicts = max_int)
    ?(should_stop = fun () -> false) t assumptions =
  check_dimacs "Solver.solve_assuming" assumptions;
  t.n_solves <- t.n_solves + 1;
  t.n_decisions <- 0;
  t.n_conflicts <- 0;
  t.n_propagations <- 0;
  t.n_restarts <- 0;
  t.n_learned <- 0;
  t.failed <- [];
  let stats_of t =
    { decisions = t.n_decisions; conflicts = t.n_conflicts;
      propagations = t.n_propagations; restarts = t.n_restarts;
      learned = t.n_learned }
  in
  if t.unsat then (Unsat, stats_of t)
  else begin
    List.iter (fun l -> ensure_vars t (abs l)) assumptions;
    let assumps = Array.of_list (List.map lit_of_dimacs assumptions) in
    (* every exit, an exception from [should_stop] included, leaves the
       solver at the root, where [add_clause] needs it *)
    match search ~max_conflicts ~should_stop t assumps with
    | r ->
      backtrack t 0;
      (r, stats_of t)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      backtrack t 0;
      Printexc.raise_with_backtrace e bt
  end

let solve_assuming ?max_conflicts ?should_stop t assumptions =
  fst (solve_assuming_stats ?max_conflicts ?should_stop t assumptions)

let failed_assumptions t = t.failed

let solves t = t.n_solves

(* One-shot interface: a fresh solver per call, so repeated solves of the
   same CNF are bit-for-bit deterministic (no retained state). *)
let solve_stats ?max_conflicts ?should_stop (cnf : Cnf.t) =
  let t = create () in
  ensure_vars t cnf.Cnf.nvars;
  List.iter (add_clause t) cnf.Cnf.clauses;
  let result, stats = solve_assuming_stats ?max_conflicts ?should_stop t [] in
  (* one-shot models are sized by the CNF header even when trailing
     variables never appear in any clause *)
  let result =
    match result with
    | Sat m when Array.length m < cnf.Cnf.nvars ->
      Sat (Array.init cnf.Cnf.nvars (fun v -> v < Array.length m && m.(v)))
    | r -> r
  in
  (result, stats)

let solve ?max_conflicts ?should_stop cnf =
  fst (solve_stats ?max_conflicts ?should_stop cnf)
