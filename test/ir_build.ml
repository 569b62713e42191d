(* IR op builders the tests need and the library does not.  Each op stays
   registered, parsed, verified and interpreted; no library code builds
   it, so its builder lives here. *)

open Everest_ir

let cast ctx v ty = Ir.op ctx "arith.cast" [ v ] [ ty ]
let subi ctx a b = Dialect_arith.binary ctx "arith.subi" a b
let divi ctx a b = Dialect_arith.binary ctx "arith.divi" a b

let decrypt ctx v key =
  Ir.op ctx "sec.decrypt" [ v; key ] [ v.Ir.vty ]
    ~attrs:[ ("algo", Attr.str "aes128-ctr") ]

let transpose ctx (a : Ir.value) =
  match a.Ir.vty with
  | Types.Tensor { elt; shape = [ m; n ] } ->
      Ir.op ctx "tensor.transpose" [ a ] [ Types.Tensor { elt; shape = [ n; m ] } ]
  | _ -> invalid_arg "tensor.transpose: rank-2 tensor required"

let taint ctx v = Ir.op ctx "sec.taint" [ v ] [ v.Ir.vty ]
let check ?(attrs = []) ctx v = Ir.op ~attrs ctx "sec.check" [ v ] [ v.Ir.vty ]

(* Two-armed conditional with optional results; each arm returns its body
   and yielded values. *)
let if_ ?(ret_types = []) ctx cond then_body else_body =
  let then_ops, then_vals = then_body ctx in
  let else_ops, else_vals = else_body ctx in
  Ir.op ctx "scf.if" [ cond ] ret_types
    ~regions:
      [
        [ Ir.block (then_ops @ [ Dialect_scf.yield ctx then_vals ]) ];
        [ Ir.block (else_ops @ [ Dialect_scf.yield ctx else_vals ]) ];
      ]
