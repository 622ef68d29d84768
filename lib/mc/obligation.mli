(** First-class proof obligations.

    An obligation is one fully-prepared property check: the instrumented,
    cone-of-influence-reduced netlist, the 1-bit ok signal, the optional
    input-constraint signal, and the engine strategy and resource budget it
    should run under — everything {!Engine.check_netlist} needs, decoupled
    from actually running it. Splitting preparation from execution is what
    lets the campaign treat its 2047 checks as schedulable, deduplicatable
    work items: obligations can be built up front, fingerprinted, fanned out
    over a parallel executor, and answered from a structural result cache.

    ['meta] carries caller-side provenance (category, module, property
    class, …) through scheduling untouched. *)

type 'meta t = {
  nl : Rtl.Netlist.t;  (** instrumented and cone-reduced *)
  ok_signal : string;
  constraint_signal : string option;
  budget : Engine.budget;
  strategy : Engine.strategy;
  meta : 'meta;
}

val prepare :
  ?budget:Engine.budget ->
  ?strategy:Engine.strategy ->
  Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  meta:'a ->
  'a t
(** Instrument a leaf module with the property monitor and package the
    reduced check. [strategy] defaults to [Auto], [budget] to
    {!Engine.default_budget}. Raises [Invalid_argument] on non-leaf modules,
    like {!Engine.check_property}. *)

val of_prepared :
  ?budget:Engine.budget ->
  ?strategy:Engine.strategy ->
  Rtl.Netlist.t * string * string option ->
  meta:'a ->
  'a t
(** Package an already-prepared check — the [(netlist, ok, constraint)]
    triple {!Engine.instrumented_netlist} or {!Engine.prepare_module}
    returns — without re-running preparation. This is how the campaign
    shares one monitor-weaving/elaboration pass across all properties of
    every module of one structure: prepare once with
    {!Engine.prepare_module}, then wrap each per-property cone here.
    Equivalent to {!prepare} on the same inputs (same netlist up to
    structural identity, hence same {!fingerprint}). *)

val of_vunit :
  ?budget:Engine.budget ->
  ?strategy:Engine.strategy ->
  Rtl.Mdl.t ->
  Psl.Ast.vunit ->
  meta:(prop_name:string -> 'a) ->
  'a t list
(** One obligation per [assert] of the vunit, all under the vunit's
    [assume]s; [meta] is invoked with each property's name. *)

val fingerprint : ?salt:string -> _ t -> string
(** Structural cache key: the canonical-form digest ({!Rtl.Canon}) of the
    reduced netlist and its ok/constraint roots, salted with the strategy
    and budget. Obligations over structurally identical logic — e.g. the N
    generated subunits of one chip category — share a fingerprint and hence
    a cached verdict; any change to the logic, the property cone, the
    strategy or the budget changes the key. The optional [salt] is appended
    to the strategy/budget salt — derived obligations (e.g. self-healing
    sub-proofs salted with their cut set) use it to guarantee their keys
    never collide with the monolithic obligation's. Runs in a
    [key/fingerprint] telemetry span. *)

val cell_digest :
  ?budget:Engine.budget ->
  ?strategy:Engine.strategy ->
  Rtl.Mdl.t ->
  props:(string * Psl.Ast.fl * Psl.Ast.fl list) list ->
  string
(** The digest of a shared-preparation cell: the input of
    {!Engine.prepare_module} followed by {!fingerprint} under [budget] and
    [strategy] (defaults as in {!prepare}). It is the MD5 of an exact
    printing of the module with its name left out, the properties' ordered
    [(assert, assumes)] formulas (their names left out too), the
    strategy-and-budget salt of {!fingerprint} and {!Engine.prep_version}.
    Equal inputs under one preparation version therefore give equal keys,
    which is what lets a store map the digest to the cell's keys
    ({!Cache.find_cell}). Properties that share one physical assumption
    list, as those of one vunit do, print it once; equal lists that are not
    shared print in full, which can only split a digest, never merge two.
    Runs in a [key/cell] telemetry span. *)

val run : _ t -> Engine.outcome
(** Execute the prepared check ({!Engine.check_netlist}). *)

val size : _ t -> int * int
(** [(state bits, input bits)] of the prepared model — the paper's "problem
    size of the properties". *)
