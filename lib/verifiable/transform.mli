(** The Verifiable-RTL transform of Figure 6: give every integrity entity an
    error-injection path through primary input ports.

    One control bit per entity ([I_ERR_INJ_C]) and one shared data bus
    ([I_ERR_INJ_D], as wide as the widest entity) are added; each protected
    register's next-state expression gains a selector. The ports must be
    tied to zero where the module is instantiated — the injection logic is
    inert in real silicon but gives the model checker a handle to corrupt
    any protected state. *)

type info = {
  mdl : Rtl.Mdl.t;  (** the transformed module *)
  ec_port : string;
  ed_port : string;
  entities : Entity.t list;  (** entity [i] is controlled by [EC[i]] *)
}

val apply : ?ec_port:string -> ?ed_port:string -> Rtl.Mdl.t -> info
(** Raises [Invalid_argument] if the module has no integrity entities or
    already declares the injection ports. *)

val control_bit : info -> Entity.t -> Rtl.Expr.t
(** The [EC] bit expression controlling an entity's selector. *)

val data_slice : info -> Entity.t -> Rtl.Expr.t
(** The [ED] slice feeding an entity (low bits of the shared bus). *)

val tie_offs : info -> (string * Rtl.Mdl.actual) list
(** Connections tying both ports to zero, for the parent instantiation
    (Figure 6's wrapper). *)
