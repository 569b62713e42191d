(* Bufferization + tensor-to-loops lowering.

   Value-semantics tensor ops become scf.for loop nests over 1-D memrefs
   (row-major linearization, computed with arith ops on indices).  This is
   the software-lowering leg of Fig. 1 (the hardware leg builds its HLS
   input from the kernel expression, [Hw_lower.dfg_of_expr]), and the test
   suite checks semantic equivalence against the tensor-level interpreter.

   Supported: fill, elementwise, scale, matmul, transpose, reshape, reduce.
   tensor.contract stays at tensor level (the DSE uses its analytic model). *)

open Everest_ir

exception Unsupported of string

let elems_of ty =
  match Types.num_elements ty with
  | Some n -> n
  | None -> raise (Unsupported "dynamic tensor shape")

let buf_type ty =
  match ty with
  | Types.Tensor { elt; _ } -> Types.memref elt [ elems_of ty ]
  | t -> t

(* Emit ops into an accumulator. *)
type emitter = { ctx : Ir.ctx; mutable acc : Ir.op list }

let emit e op = e.acc <- op :: e.acc; Ir.result op
let emit0 e op = e.acc <- op :: e.acc

let const_index e i = emit e (Dialect_arith.const_index e.ctx i)

(* for i = 0 .. n-1: body gets the induction value *)
let for_range e n body =
  let lo = const_index e 0 in
  let hi = const_index e n in
  let step = const_index e 1 in
  let loop =
    Dialect_scf.for_ e.ctx lo hi step (fun ctx iv _ ->
        let inner = { ctx; acc = [] } in
        body inner iv;
        (List.rev inner.acc, []))
  in
  emit0 e loop

(* like for_range but threads a float accumulator; returns the final value *)
let for_range_acc e n init body =
  let lo = const_index e 0 in
  let hi = const_index e n in
  let step = const_index e 1 in
  let loop =
    Dialect_scf.for_ e.ctx ~iter_args:[ init ] lo hi step (fun ctx iv args ->
        let inner = { ctx; acc = [] } in
        let next = body inner iv (List.hd args) in
        (List.rev inner.acc, [ next ]))
  in
  emit e loop

let alloc e elt n = emit e (Dialect_memref.alloc e.ctx elt [ n ])
let load e m i = emit e (Dialect_memref.load e.ctx m [ i ])
let store e v m i = emit0 e (Dialect_memref.store e.ctx v m [ i ])

let elt_of_tensor (v : Ir.value) =
  match v.Ir.vty with
  | Types.Tensor { elt; _ } -> elt
  | _ -> raise (Unsupported "expected tensor value")

let shape_of_tensor (v : Ir.value) =
  match v.Ir.vty with
  | Types.Tensor _ as t -> Types.static_shape_exn t
  | _ -> raise (Unsupported "expected tensor value")

let rec ew_scalar e kind operands =
  match (kind, operands) with
  | "add", [ a; b ] -> emit e (Dialect_arith.addf e.ctx a b)
  | "sub", [ a; b ] -> emit e (Dialect_arith.subf e.ctx a b)
  | "mul", [ a; b ] -> emit e (Dialect_arith.mulf e.ctx a b)
  | "div", [ a; b ] -> emit e (Dialect_arith.divf e.ctx a b)
  | "max", [ a; b ] -> emit e (Dialect_arith.maxf e.ctx a b)
  | "min", [ a; b ] -> emit e (Dialect_arith.minf e.ctx a b)
  | "neg", [ a ] -> emit e (Dialect_arith.negf e.ctx a)
  | "sqrt", [ a ] -> emit e (Dialect_arith.sqrtf e.ctx a)
  | "exp", [ a ] -> emit e (Dialect_arith.expf e.ctx a)
  | "relu", [ a ] ->
      let z = emit e (Dialect_arith.const_f e.ctx 0.0) in
      emit e (Dialect_arith.maxf e.ctx a z)
  | "sigmoid", [ a ] ->
      let one = emit e (Dialect_arith.const_f e.ctx 1.0) in
      let na = emit e (Dialect_arith.negf e.ctx a) in
      let ex = emit e (Dialect_arith.expf e.ctx na) in
      let denom = emit e (Dialect_arith.addf e.ctx one ex) in
      emit e (Dialect_arith.divf e.ctx one denom)
  | "tanh", [ a ] ->
      (* tanh x = 2*sigmoid(2x) - 1 *)
      let two = emit e (Dialect_arith.const_f e.ctx 2.0) in
      let one = emit e (Dialect_arith.const_f e.ctx 1.0) in
      let x2 = emit e (Dialect_arith.mulf e.ctx two a) in
      let s = ew_scalar e "sigmoid" [ x2 ] in
      let s2 = emit e (Dialect_arith.mulf e.ctx two s) in
      emit e (Dialect_arith.subf e.ctx s2 one)
  | k, _ -> raise (Unsupported ("elementwise kind " ^ k))

(* Lower one tensor-dialect op.  [env] maps tensor SSA ids to their buffer
   values; scalar values pass through unchanged. *)
let lower_op e (env : (int, Ir.value) Hashtbl.t) (o : Ir.op) =
  let buf_of (v : Ir.value) =
    match Hashtbl.find_opt env v.Ir.vid with
    | Some b -> b
    | None -> v  (* scalars and already-memref values *)
  in
  let bind_result buf = Hashtbl.replace env (Ir.result o).Ir.vid buf in
  match o.Ir.name with
  | "tensor.fill" ->
      let scalar = buf_of (List.hd o.Ir.operands) in
      let ty = (Ir.result o).Ir.vty in
      let n = elems_of ty in
      let out = alloc e (elt_of_tensor (Ir.result o)) n in
      for_range e n (fun inner iv -> store inner scalar out iv);
      bind_result out
  | "tensor.elementwise" ->
      let kind = Option.value ~default:"" (Ir.attr_str "kind" o) in
      let ins = List.map buf_of o.Ir.operands in
      let n = elems_of (Ir.result o).Ir.vty in
      let out = alloc e (elt_of_tensor (Ir.result o)) n in
      for_range e n (fun inner iv ->
          let vals = List.map (fun m -> load inner m iv) ins in
          let r = ew_scalar inner kind vals in
          store inner r out iv);
      bind_result out
  | "tensor.scale" ->
      let s = buf_of (List.nth o.Ir.operands 0) in
      let m = buf_of (List.nth o.Ir.operands 1) in
      let n = elems_of (Ir.result o).Ir.vty in
      let out = alloc e (elt_of_tensor (Ir.result o)) n in
      for_range e n (fun inner iv ->
          let x = load inner m iv in
          let r = emit inner (Dialect_arith.mulf inner.ctx s x) in
          store inner r out iv);
      bind_result out
  | "tensor.matmul" ->
      let a = buf_of (List.nth o.Ir.operands 0) in
      let b = buf_of (List.nth o.Ir.operands 1) in
      let m, k =
        match shape_of_tensor (List.nth o.Ir.operands 0) with
        | [ m; k ] -> (m, k)
        | _ -> raise (Unsupported "matmul rank")
      in
      let n =
        match shape_of_tensor (List.nth o.Ir.operands 1) with
        | [ _; n ] -> n
        | _ -> raise (Unsupported "matmul rank")
      in
      let out = alloc e (elt_of_tensor (Ir.result o)) (m * n) in
      for_range e m (fun e_i i ->
          for_range e_i n (fun e_j j ->
              let zero = emit e_j (Dialect_arith.const_f e_j.ctx 0.0) in
              let acc =
                for_range_acc e_j k zero (fun e_l l acc ->
                    (* a[i*k + l] * b[l*n + j] *)
                    let ck = const_index e_l k in
                    let cn = const_index e_l n in
                    let ik = emit e_l (Dialect_arith.muli e_l.ctx i ck) in
                    let ia = emit e_l (Dialect_arith.addi e_l.ctx ik l) in
                    let ln = emit e_l (Dialect_arith.muli e_l.ctx l cn) in
                    let ib = emit e_l (Dialect_arith.addi e_l.ctx ln j) in
                    let va = load e_l a ia in
                    let vb = load e_l b ib in
                    let p = emit e_l (Dialect_arith.mulf e_l.ctx va vb) in
                    emit e_l (Dialect_arith.addf e_l.ctx acc p))
              in
              let cn = const_index e_j n in
              let inj = emit e_j (Dialect_arith.muli e_j.ctx i cn) in
              let idx = emit e_j (Dialect_arith.addi e_j.ctx inj j) in
              store e_j acc out idx));
      bind_result out
  | "tensor.transpose" ->
      let a = buf_of (List.hd o.Ir.operands) in
      let m, n =
        match shape_of_tensor (List.hd o.Ir.operands) with
        | [ m; n ] -> (m, n)
        | _ -> raise (Unsupported "transpose rank")
      in
      let out = alloc e (elt_of_tensor (Ir.result o)) (m * n) in
      for_range e m (fun e_i i ->
          for_range e_i n (fun e_j j ->
              let cn = const_index e_j n in
              let cm = const_index e_j m in
              let src = emit e_j (Dialect_arith.muli e_j.ctx i cn) in
              let src = emit e_j (Dialect_arith.addi e_j.ctx src j) in
              let dst = emit e_j (Dialect_arith.muli e_j.ctx j cm) in
              let dst = emit e_j (Dialect_arith.addi e_j.ctx dst i) in
              let v = load e_j a src in
              store e_j v out dst));
      bind_result out
  | "tensor.reshape" ->
      (* same linearized contents: copy into a fresh buffer *)
      let a = buf_of (List.hd o.Ir.operands) in
      let n = elems_of (Ir.result o).Ir.vty in
      let out = alloc e (elt_of_tensor (Ir.result o)) n in
      emit0 e (Dialect_memref.copy e.ctx a out);
      bind_result out
  | "tensor.reduce" ->
      let a = buf_of (List.hd o.Ir.operands) in
      let kind = Option.value ~default:"add" (Ir.attr_str "kind" o) in
      let n = elems_of (List.hd o.Ir.operands).Ir.vty in
      let init, combine =
        match kind with
        | "add" -> (0.0, fun e x acc -> emit e (Dialect_arith.addf e.ctx acc x))
        | "mul" -> (1.0, fun e x acc -> emit e (Dialect_arith.mulf e.ctx acc x))
        | "max" ->
            (neg_infinity, fun e x acc -> emit e (Dialect_arith.maxf e.ctx acc x))
        | "min" ->
            (infinity, fun e x acc -> emit e (Dialect_arith.minf e.ctx acc x))
        | k -> raise (Unsupported ("reduce kind " ^ k))
      in
      let z = emit e (Dialect_arith.const_f e.ctx init) in
      let total =
        for_range_acc e n z (fun inner iv acc ->
            let x = load inner a iv in
            combine inner x acc)
      in
      (* scalar result: substitute directly *)
      Hashtbl.replace env (Ir.result o).Ir.vid total
  | "func.return" ->
      emit0 e
        { o with Ir.operands = List.map buf_of o.Ir.operands }
  | name when String.length name > 7 && String.sub name 0 7 = "tensor." ->
      raise (Unsupported name)
  | _ ->
      (* scalar/other op: remap operands and keep *)
      emit0 e { o with Ir.operands = List.map buf_of o.Ir.operands }

(* Lower a whole function: tensor arguments and results become memrefs. *)
let lower_func ctx (f : Ir.func) : Ir.func =
  let env : (int, Ir.value) Hashtbl.t = Hashtbl.create 32 in
  let new_args =
    List.map
      (fun (v : Ir.value) ->
        if Types.is_tensor v.Ir.vty then begin
          let b = Ir.fresh_value ctx (buf_type v.Ir.vty) in
          Hashtbl.replace env v.Ir.vid b;
          b
        end
        else v)
      f.Ir.fargs
  in
  let e = { ctx; acc = [] } in
  List.iter (fun o -> lower_op e env o) f.Ir.fbody;
  let new_rets = List.map buf_type f.Ir.fret_types in
  {
    f with
    Ir.fargs = new_args;
    fret_types = new_rets;
    fbody = List.rev e.acc;
  }
