(** Canonical signal renaming and structural fingerprints for netlists.

    Two elaborated netlists that are identical up to signal naming — the
    common case for the N generated subunits of one chip category — receive
    the same canonical form and therefore the same fingerprint. The
    fingerprint is the key of the campaign's structural result cache: a
    verdict proved for one subunit is reused for every structurally
    identical sibling instead of being re-proved.

    Canonical names are assigned positionally, in a deterministic traversal
    of the netlist (inputs, outputs, registers, then combinational assigns
    in their topological order), so the renaming needs no graph
    canonicalization and runs in linear time. *)

val rename : (string -> string) -> Netlist.t -> Netlist.t
(** Apply a signal renaming everywhere: port, wire and register names and
    every expression (assign right-hand sides and register next-state
    functions). The top name is left untouched. *)

val canonical_map : Netlist.t -> (string -> string)
(** The positional canonical renaming of a netlist. Signals outside the
    netlist map to themselves. *)

val fingerprint : ?salt:string -> ?roots:string list -> Netlist.t -> string
(** Hex digest of the canonical form, [rename (canonical_map nl) nl]: the
    text is printed with each name mapped on the way, so the renamed
    netlist is never built. [roots] (e.g. the property's ok and constraint
    signals) are translated through the canonical map and folded into the
    digest; [salt] lets callers mix in non-structural inputs such as the
    engine strategy and resource budget. *)
