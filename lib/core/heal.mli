(** Self-healing recovery for resource-starved obligations — the automatic
    Figure 7 loop.

    When an obligation exhausts its engine budget ([Resource_out]), the
    campaign hands it here. The healer mines candidate parity checkpoints
    in the failing property cone ({!Verifiable.Partition.mine_cuts} — the
    protected entities are known), proves what it can about each cut
    ("always odd parity", on the original module, under the obligation's
    own assumptions), then re-checks the property on a module where the
    cuts are freed into primary inputs ({!Verifiable.Partition.free_cuts}):

    - a {e guaranteed} cut (its parity sub-proof succeeded) contributes a
      parity assumption to the final check — classic assume-guarantee over
      the cut;
    - an {e unguaranteed} cut is freed with no assumption — a pure
      over-approximation, sound for safety properties because freeing only
      adds behaviours.

    A [Proved] final check therefore transfers to the original module. A
    [Failed] one is replayed on the concrete module ({!Core.Replay} over
    {!Mc.Engine.replay_model}): a reproducing trace is a real failure with
    the concrete counterexample attached; a non-reproducing one is a
    spurious artifact and triggers CEGAR refinement — the cut whose freed
    values diverge from the concrete machine is un-freed and the check
    re-run — under a bounded iteration budget, after which the obligation
    honestly reports [Resource_out "heal-exhausted"]
    ({!Mc.Engine.ro_heal_exhausted}). *)

val engine_name : string
(** ["self-heal"] — the [engine_used] attribution of every outcome this
    layer produces; it is how healed rows are recognized in summaries,
    metrics and a rerun that finds them in its cache. *)

type piece = {
  p_mdl : Rtl.Mdl.t;  (** original module (sub-proofs) or freed-cut module *)
  p_assert : Psl.Ast.fl;
  p_assumes : Psl.Ast.fl list;
  p_salt : string;
      (** fingerprint salt — ["heal-sub:<cut>"] or ["heal-final:<cuts>"] —
          guaranteeing piece keys never collide with the monolithic key *)
  p_label : string;  (** telemetry span label *)
}
(** One derived proof obligation. The campaign runs pieces through its
    normal prepare / cache path, so structurally identical pieces dedupe
    across obligations and a rerun on the same cache file finds them on
    disk. *)

type result = {
  h_outcome : Mc.Engine.outcome option;
      (** [None]: the cone holds no usable cuts — the obligation keeps its
          original verdict and cause. [Some o]: the healed conclusive
          outcome, or [Resource_out "heal-exhausted"]. *)
  h_pieces : int;  (** pieces consulted (cache hits included) *)
  h_subs_proved : int;  (** cuts whose parity sub-proof succeeded *)
  h_finals : int;  (** freed-cut final checks run (CEGAR iterations) *)
  h_spurious : int;  (** counterexamples refuted by concrete replay *)
  h_bad_cuts : int;  (** mined candidates that could not be freed *)
  h_wall_s : float;
}

val heal_one :
  ?mine:(Rtl.Mdl.t -> roots:string list -> string list) ->
  max_iters:int ->
  run_piece:(piece -> Mc.Engine.outcome) ->
  mdl:Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  unit ->
  result
(** Heal one resource-starved obligation. [run_piece] executes a derived
    obligation (the campaign supplies its cache-aware runner);
    [max_iters] bounds the number of freed-cut final checks. [mine]
    overrides the checkpoint miner (tests inject bad candidates through
    it); a candidate that {!Verifiable.Partition.free_cuts} rejects with
    [Invalid_argument] is counted in [h_bad_cuts], logged via the
    [heal.bad_cuts] telemetry counter and skipped — never a crash. The
    function is deterministic for a fixed [run_piece]: pieces run
    sequentially in a fixed order, so a campaign heals identically at every
    job count. *)
