(* Lowering from the eDSLs into the unified IR (the compiler front-end of
   Fig. 1: "unifies the orchestration and the kernel specifications into a
   single MLIR"). *)

open Everest_ir

let tensor_type shape =
  if shape = [] then Types.f64 else Types.tensor Types.F64 shape

(* Lower a tensor expression to a function over its free inputs.
   Returns the function; input order follows [Tensor_expr.inputs]. *)
let lower_expr ?(fname = "kernel") ?(annots = []) ctx (e : Tensor_expr.expr) =
  let ins = Tensor_expr.inputs e in
  let args =
    List.map (fun (_, shape) -> Ir.fresh_value ctx (tensor_type shape)) ins
  in
  let env = List.combine (List.map fst ins) args in
  let acc = ref [] in
  let emit op = acc := op :: !acc; Ir.result op in
  let rec go (e : Tensor_expr.expr) : Ir.value =
    match e.Tensor_expr.node with
    | Input n -> List.assoc n env
    | Binop (op, a, b) ->
        let va = go a and vb = go b in
        if e.shape = [] then
          emit
            ((match op with
             | Tensor_expr.Add -> Dialect_arith.addf
             | Sub -> Dialect_arith.subf
             | Mul -> Dialect_arith.mulf
             | Div -> Dialect_arith.divf)
               ctx va vb)
        else
          let kind =
            match op with
            | Tensor_expr.Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
          in
          emit (Dialect_tensor.elementwise ctx kind [ va; vb ])
    | Unop (op, a) ->
        let va = go a in
        let kind =
          match op with
          | Tensor_expr.Relu -> "relu" | Sigmoid -> "sigmoid" | Tanh -> "tanh"
        in
        if e.shape = [] then (
          (* scalar sigmoid/tanh/relu: route through a 1-element tensor *)
          let one = emit (Dialect_tensor.fill ctx va (Types.tensor Types.F64 [ 1 ])) in
          let r = emit (Dialect_tensor.elementwise ctx kind [ one ]) in
          emit (Dialect_tensor.reduce ctx "add" r))
        else emit (Dialect_tensor.elementwise ctx kind [ va ])
    | Scale (k, a) ->
        let va = go a in
        let s = emit (Dialect_arith.const_f ctx k) in
        if e.shape = [] then emit (Dialect_arith.mulf ctx s va)
        else emit (Dialect_tensor.scale ctx s va)
    | Matmul (a, b) ->
        let va = go a and vb = go b in
        emit (Dialect_tensor.matmul ctx va vb)
    | Contract (spec, es) ->
        let vs = List.map go es in
        emit (Dialect_tensor.contract ctx spec vs (tensor_type e.shape))
  in
  let result = go e in
  let ret = Dialect_func.return ctx [ result ] in
  let body = List.rev (ret :: !acc) in
  Ir.func ~attrs:(Annot.to_attrs annots) fname args
    [ tensor_type (Tensor_expr.shape e) ]
    body

(* Evaluate a lowered kernel function through the IR interpreter. *)
let run_lowered ctx (f : Ir.func) (args : Tensor_expr.tensor list) =
  let m = Ir.modul "tmp" [ f ] in
  let rt_args =
    List.map2
      (fun (v : Ir.value) (t : Tensor_expr.tensor) ->
        if Types.is_scalar v.Ir.vty then Interp.RFloat t.Tensor_expr.data.(0)
        else Interp.tensor_of_array t.Tensor_expr.dims t.Tensor_expr.data)
      f.Ir.fargs args
  in
  let rets, profile = Interp.run_func ctx m f.Ir.fname rt_args in
  ( (match rets with
    | [ Interp.RFloat v ] -> Tensor_expr.tensor_scalar v
    | [ Interp.RBuf b ] ->
        Tensor_expr.tensor b.Interp.shape b.Interp.data
    | _ -> invalid_arg "run_lowered: unexpected result"),
    profile )

(* Lower a workflow graph to a module: one function per tensor kernel plus a
   [main] orchestration function holding the df.graph. *)
let lower_graph ctx (g : Dataflow.graph) : Ir.modul =
  let kernel_funcs = ref [] in
  let kernel_name (n : Dataflow.node) = "k_" ^ n.Dataflow.nname in
  List.iter
    (fun (n : Dataflow.node) ->
      match n.Dataflow.kernel with
      | Some (Dataflow.Tensor_kernel e) ->
          let f =
            lower_expr ~fname:(kernel_name n) ~annots:n.Dataflow.annots ctx e
          in
          kernel_funcs := f :: !kernel_funcs
      | _ -> ())
    (Dataflow.nodes g);
  (* orchestration body *)
  let produced : (int, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let data_ty (_n : Dataflow.node) = Types.tensor_dyn Types.I8 [ Types.Dyn ] in
  let ops =
    List.concat_map
      (fun (n : Dataflow.node) ->
        let attrs =
          ("out_bytes", Attr.int n.Dataflow.out_bytes)
          :: Annot.to_attrs n.Dataflow.annots
        in
        match n.Dataflow.kernel with
        | None ->
            let o = Dialect_df.source ~attrs ctx n.Dataflow.nname (data_ty n) in
            Hashtbl.replace produced n.Dataflow.nid (Ir.result o);
            [ o ]
        | Some k ->
            let inputs =
              List.map (fun (d : Dataflow.node) -> Hashtbl.find produced d.Dataflow.nid)
                n.Dataflow.deps
            in
            let attrs =
              match k with
              | Dataflow.Tensor_kernel _ -> attrs
              | Dataflow.External { lang; est_flops; est_bytes } ->
                  ("external", Attr.str lang)
                  :: ("est_flops", Attr.int est_flops)
                  :: ("est_bytes", Attr.int est_bytes)
                  :: attrs
              | Dataflow.Ai_model { layers; activation } ->
                  ("ai_layers", Attr.ints layers)
                  :: ("ai_activation", Attr.str activation)
                  :: attrs
            in
            let o =
              Dialect_df.task ~attrs ctx ~kernel:(kernel_name n) inputs
                [ data_ty n ]
            in
            Hashtbl.replace produced n.Dataflow.nid (Ir.result o);
            [ o ])
      (Dataflow.nodes g)
  in
  let sink_ops =
    List.map
      (fun (name, (n : Dataflow.node)) ->
        Dialect_df.sink ctx name (Hashtbl.find produced n.Dataflow.nid))
      (Dataflow.sinks g)
  in
  let graph_op = Dialect_df.graph ctx g.Dataflow.gname (ops @ sink_ops) in
  let ret = Dialect_func.return ctx [] in
  let main = Ir.func "main" [] [] [ graph_op; ret ] in
  Ir.modul g.Dataflow.gname (List.rev !kernel_funcs @ [ main ])
