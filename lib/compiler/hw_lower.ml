(* Construction of HLS-ready data-flow graphs from tensor expressions.

   For hardware variants the compiler extracts the per-element inner-loop
   body of the expression (a chain of loads, arithmetic and one store),
   replicates it [unroll] times and hands the DFG to the HLS flow — the
   "chain of tensor operations directly on the FPGA logic before writing
   back to main memory" of §III-B. *)

open Everest_dsl

(* Build the inner-loop body DFG.  Each input contributes a load; the
   expression tree contributes arithmetic nodes; the root ends in a store.
   [unroll] replicates the body with shifted affine offsets. *)
let dfg_of_expr ?(unroll = 1) (e : Tensor_expr.expr) : Everest_hls.Cdfg.t =
  let open Everest_hls in
  let b = Cdfg.builder () in
  let inputs = Tensor_expr.inputs e in
  List.iter
    (fun (name, shape) ->
      Cdfg.declare_array b name (max 1 (Tensor_expr.num_elems shape)))
    inputs;
  Cdfg.declare_array b "out" (max 1 (Tensor_expr.num_elems (Tensor_expr.shape e)));
  for u = 0 to unroll - 1 do
    let rec build (e : Tensor_expr.expr) : int =
      match e.Tensor_expr.node with
      | Tensor_expr.Input name ->
          Cdfg.add_node b ~array:name
            ~index:(Cdfg.Affine { coeff = 1; offset = u })
            Cdfg.Load "load" []
      | Tensor_expr.Binop (op, x, y) ->
          let nx = build x and ny = build y in
          let cls =
            match op with
            | Tensor_expr.Mul -> Cdfg.Mul
            | Tensor_expr.Div -> Cdfg.Div
            | _ -> Cdfg.Add
          in
          Cdfg.add_node b cls "binop" [ nx; ny ]
      | Tensor_expr.Unop (op, x) ->
          let nx = build x in
          let cls =
            match op with
            | Tensor_expr.Sigmoid | Tensor_expr.Tanh ->
                Cdfg.Div  (* long-latency transcendental units *)
            | Tensor_expr.Relu -> Cdfg.Add
          in
          Cdfg.add_node b cls "unop" [ nx ]
      | Tensor_expr.Scale (_, x) ->
          let nx = build x in
          Cdfg.add_node b Cdfg.Mul "scale" [ nx ]
      | Tensor_expr.Matmul (x, y) ->
          (* inner product step: mul + accumulate over both operands *)
          let nx = build x and ny = build y in
          let m = Cdfg.add_node b Cdfg.Mul "mac.mul" [ nx; ny ] in
          Cdfg.add_node b Cdfg.Add "mac.add" [ m ]
      | Tensor_expr.Contract (_, es) ->
          let ns = List.map build es in
          let m =
            match ns with
            | a :: c :: _ -> Cdfg.add_node b Cdfg.Mul "contract.mul" [ a; c ]
            | [ a ] -> a
            | [] -> Cdfg.add_node b Cdfg.Const "const" []
          in
          Cdfg.add_node b Cdfg.Add "contract.acc" [ m ]
    in
    let root = build e in
    ignore
      (Cdfg.add_node b ~array:"out"
         ~index:(Cdfg.Affine { coeff = 1; offset = u })
         Cdfg.Store "store" [ root ])
  done;
  Cdfg.finish b

(* Trip count: elements of the output times per-element depth for
   contraction kernels (each trip = one MAC step). *)
let trips (e : Tensor_expr.expr) ~unroll =
  let out_elems = max 1 (Tensor_expr.num_elems (Tensor_expr.shape e)) in
  let inner =
    let rec k_of (e : Tensor_expr.expr) =
      match e.Tensor_expr.node with
      | Tensor_expr.Matmul (a, _) ->
          (match a.Tensor_expr.shape with [ _; k ] -> k | _ -> 1)
      | Tensor_expr.Binop (_, a, b) -> max (k_of a) (k_of b)
      | Tensor_expr.Unop (_, a) | Tensor_expr.Scale (_, a) -> k_of a
      | Tensor_expr.Contract (_, es) ->
          List.fold_left (fun m x -> max m (k_of x)) 2 es
      | _ -> 1
    in
    k_of e
  in
  max 1 (out_elems * inner / max 1 unroll)
