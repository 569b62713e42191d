(* `arith` dialect: scalar arithmetic, comparisons and casts. *)

open Ir

let const_i ?(ty = Types.i64) ctx (i : int) =
  op ctx "arith.constant" [] [ ty ] ~attrs:[ ("value", Attr.int i) ]

let const_f ?(ty = Types.f64) ctx (f : float) =
  op ctx "arith.constant" [] [ ty ] ~attrs:[ ("value", Attr.float f) ]

let const_index ctx i = const_i ~ty:Types.index ctx i

let binary ctx name a b = op ctx name [ a; b ] [ a.vty ]

let addi ctx a b = binary ctx "arith.addi" a b
let muli ctx a b = binary ctx "arith.muli" a b
let addf ctx a b = binary ctx "arith.addf" a b
let subf ctx a b = binary ctx "arith.subf" a b
let mulf ctx a b = binary ctx "arith.mulf" a b
let divf ctx a b = binary ctx "arith.divf" a b
let maxf ctx a b = binary ctx "arith.maxf" a b
let minf ctx a b = binary ctx "arith.minf" a b

type cmp_pred = Eq | Ne | Lt | Le | Gt | Ge

let cmp_pred_of_name = function
  | "eq" -> Some Eq | "ne" -> Some Ne | "lt" -> Some Lt
  | "le" -> Some Le | "gt" -> Some Gt | "ge" -> Some Ge | _ -> None

let negf ctx a = op ctx "arith.negf" [ a ] [ a.vty ]
let sqrtf ctx a = op ctx "arith.sqrtf" [ a ] [ a.vty ]
let expf ctx a = op ctx "arith.expf" [ a ] [ a.vty ]

(* Value of a constant op, if any. *)
let const_value (o : Ir.op) =
  if String.equal o.name "arith.constant" then Ir.attr "value" o else None

let int_binops =
  [ "arith.addi"; "arith.subi"; "arith.muli"; "arith.divi"; "arith.remi";
    "arith.andi"; "arith.ori"; "arith.xori"; "arith.shli"; "arith.shri" ]

let float_binops =
  [ "arith.addf"; "arith.subf"; "arith.mulf"; "arith.divf"; "arith.maxf";
    "arith.minf" ]

(* ---- constant folding: the ops' semantics on known operands ---- *)

let int_fold name a b =
  match name with
  | "arith.addi" -> Some (a + b)
  | "arith.subi" -> Some (a - b)
  | "arith.muli" -> Some (a * b)
  | "arith.divi" -> if b = 0 then None else Some (a / b)
  | "arith.remi" -> if b = 0 then None else Some (a mod b)
  | "arith.andi" -> Some (a land b)
  | "arith.ori" -> Some (a lor b)
  | "arith.xori" -> Some (a lxor b)
  | "arith.shli" -> Some (a lsl b)
  | "arith.shri" -> Some (a lsr b)
  | _ -> None

let float_fold name a b =
  match name with
  | "arith.addf" -> Some (a +. b)
  | "arith.subf" -> Some (a -. b)
  | "arith.mulf" -> Some (a *. b)
  | "arith.divf" -> Some (a /. b)
  | "arith.maxf" -> Some (Float.max a b)
  | "arith.minf" -> Some (Float.min a b)
  | _ -> None

let float_unary_fold name a =
  match name with
  | "arith.negf" -> Some (-.a)
  | "arith.sqrtf" -> Some (sqrt a)
  | "arith.expf" -> Some (exp a)
  | _ -> None

let cmp_fold pred c =
  match pred with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let verify_binary op =
  Dialect.all
    [ Dialect.expect_operands 2; Dialect.expect_results 1;
      Dialect.same_type_operands ]
    op

let verify_int_binary op =
  match verify_binary op with
  | Error _ as e -> e
  | Ok () ->
      if Types.is_int_scalar (Dialect.operand_type 0 op) then Dialect.ok
      else Dialect.err "%s: operands must be integer scalars" op.Ir.name

let verify_float_binary op =
  match verify_binary op with
  | Error _ as e -> e
  | Ok () ->
      if Types.is_float_scalar (Dialect.operand_type 0 op) then Dialect.ok
      else Dialect.err "%s: operands must be float scalars" op.Ir.name

let register () =
  Dialect.register "arith.constant" ~traits:[ Dialect.Pure ]
    ~doc:"Materialize a compile-time scalar constant."
    (Dialect.all [ Dialect.expect_operands 0; Dialect.expect_results 1;
                   Dialect.expect_attr "value" ]);
  List.iter
    (fun n ->
      Dialect.register n ~traits:[ Dialect.Pure ] ~doc:"Integer binary op."
        verify_int_binary)
    int_binops;
  List.iter
    (fun n ->
      Dialect.register n ~traits:[ Dialect.Pure ] ~doc:"Float binary op."
        verify_float_binary)
    float_binops;
  List.iter
    (fun n ->
      Dialect.register n ~traits:[ Dialect.Pure ] ~doc:"Comparison."
        (Dialect.all
           [ Dialect.expect_operands 2; Dialect.expect_results 1;
             Dialect.expect_attr "predicate"; Dialect.same_type_operands ]))
    [ "arith.cmpi"; "arith.cmpf" ];
  Dialect.register "arith.select" ~traits:[ Dialect.Pure ] ~doc:"Ternary select."
    (Dialect.all [ Dialect.expect_operands 3; Dialect.expect_results 1 ]);
  List.iter
    (fun n ->
      Dialect.register n ~traits:[ Dialect.Pure ] ~doc:"Unary float op."
        (Dialect.all [ Dialect.expect_operands 1; Dialect.expect_results 1 ]))
    [ "arith.cast"; "arith.negf"; "arith.sqrtf"; "arith.expf" ]
