(* The chip the preparation-cell and healing tests share. E_leaf00 and
   E_leaf01 are twins: the same module but for its name. This chip holds
   them and E_leaf02, with E_leaf01's first register's parity flag
   flipped. *)

module G = Chip.Generator

let chip (t : G.t) =
  let cat_e =
    List.find (fun (c : G.category) -> c.G.cat_name = "E") t.G.categories
  in
  let unit_ name =
    List.find
      (fun (u : G.unit_) ->
        u.G.info.Verifiable.Transform.mdl.Rtl.Mdl.name = name)
      cat_e.G.units
  in
  let flip (u : G.unit_) =
    let mdl = u.G.info.Verifiable.Transform.mdl in
    let first = (List.hd mdl.Rtl.Mdl.regs).Rtl.Mdl.reg_name in
    let mdl =
      Rtl.Mdl.map_regs
        (fun r ->
          if r.Rtl.Mdl.reg_name = first then
            { r with Rtl.Mdl.parity_protected = not r.Rtl.Mdl.parity_protected }
          else r)
        mdl
    in
    { u with G.info = { u.G.info with Verifiable.Transform.mdl = mdl } }
  in
  { t with
    G.categories =
      [ { cat_e with
          G.units =
            [ unit_ "E_leaf00"; flip (unit_ "E_leaf01"); unit_ "E_leaf02" ];
          G.expected = { cat_e.G.expected with G.sub = 3 } } ] }
