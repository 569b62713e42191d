(* `tensor` dialect: the data-centric abstraction of EVEREST DSLs.

   Value-semantics tensor operations carried from the tensor-expression DSL
   (CFDlang/TeIL lineage).  The compiler either lowers them to scf/memref
   loop nests (software variants) or outlines chains of them into hw.kernel
   ops (hardware variants). *)

open Ir

let elt_of (v : value) =
  match v.vty with
  | Types.Tensor { elt; _ } -> elt
  | Types.Scalar s -> s
  | _ -> invalid_arg "tensor op on non-tensor value"

let fill ctx scalar ty = op ctx "tensor.fill" [ scalar ] [ ty ]

let elementwise ctx kind operands =
  match operands with
  | v :: _ ->
      op ctx "tensor.elementwise" operands [ v.vty ]
        ~attrs:[ ("kind", Attr.str kind) ]
  | [] -> invalid_arg "tensor.elementwise: no operands"

let scale ctx s a = op ctx "tensor.scale" [ s; a ] [ a.vty ]

let matmul ctx a b =
  match (a.vty, b.vty) with
  | ( Types.Tensor { elt; shape = [ m; _k ] },
      Types.Tensor { shape = [ _k'; n ]; _ } ) ->
      op ctx "tensor.matmul" [ a; b ] [ Types.Tensor { elt; shape = [ m; n ] } ]
  | _ -> invalid_arg "tensor.matmul: rank-2 tensors required"

(* Reduce along all axes to a scalar. *)
let reduce ctx kind a =
  op ctx "tensor.reduce" [ a ]
    [ Types.Scalar (elt_of a) ]
    ~attrs:[ ("kind", Attr.str kind) ]

(* Generic contraction described by an einsum-like spec, e.g. "ij,jk->ik". *)
let contract ctx spec operands out_ty =
  op ctx "tensor.contract" operands [ out_ty ] ~attrs:[ ("spec", Attr.str spec) ]

let ew_kinds =
  [ "add"; "sub"; "mul"; "div"; "max"; "min"; "relu"; "sigmoid"; "tanh";
    "exp"; "neg"; "sqrt" ]

let unary_kinds = [ "relu"; "sigmoid"; "tanh"; "exp"; "neg"; "sqrt" ]

let verify_elementwise (o : Ir.op) =
  match Ir.attr_str "kind" o with
  | None -> Dialect.err "tensor.elementwise: missing kind"
  | Some k when not (List.mem k ew_kinds) ->
      Dialect.err "tensor.elementwise: unknown kind %S" k
  | Some k ->
      let arity = if List.mem k unary_kinds then 1 else 2 in
      Dialect.all
        [ Dialect.expect_operands arity; Dialect.expect_results 1;
          Dialect.same_type_operands ]
        o

let verify_matmul (o : Ir.op) =
  match o.operands with
  | [ a; b ] -> (
      match (a.vty, b.vty) with
      | Types.Tensor { shape = [ _; k ]; _ }, Types.Tensor { shape = [ k'; _ ]; _ }
        when Types.dim_compatible k k' ->
          Dialect.expect_results 1 o
      | _ -> Dialect.err "tensor.matmul: inner dimensions must agree")
  | _ -> Dialect.err "tensor.matmul: expected 2 operands"

let register () =
  Dialect.register "tensor.fill" ~traits:[ Dialect.Pure ]
    ~doc:"Broadcast a scalar into a tensor."
    (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 1 ]);
  Dialect.register "tensor.elementwise" ~traits:[ Dialect.Pure; Dialect.Commutative ]
    ~doc:"Pointwise tensor operation." verify_elementwise;
  Dialect.register "tensor.scale" ~traits:[ Dialect.Pure ]
    ~doc:"Scalar-tensor multiply."
    (Dialect.all [ Dialect.expect_operands 2; Dialect.expect_results 1 ]);
  Dialect.register "tensor.matmul" ~traits:[ Dialect.Pure ]
    ~doc:"Rank-2 matrix product." verify_matmul;
  Dialect.register "tensor.transpose" ~traits:[ Dialect.Pure ]
    ~doc:"Rank-2 transpose."
    (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 1 ]);
  Dialect.register "tensor.reshape" ~traits:[ Dialect.Pure ] ~doc:"Reshape."
    (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 1 ]);
  Dialect.register "tensor.reduce" ~traits:[ Dialect.Pure ]
    ~doc:"Full reduction to a scalar."
    (Dialect.all
       [ Dialect.expect_operands 1; Dialect.expect_results 1;
         Dialect.expect_attr "kind" ]);
  Dialect.register "tensor.contract" ~traits:[ Dialect.Pure ]
    ~doc:"Einsum-style contraction."
    (Dialect.all [ Dialect.expect_results 1; Dialect.expect_attr "spec" ])
