(* Reference interpreter for the IR.

   Executes arith/scf/memref/tensor/func/sec ops over a small runtime value
   domain.  Used by the test suite to check that compiler transformations
   preserve semantics, and by the platform simulator to obtain ground-truth
   results for software variants.  The interpreter also keeps an operation
   profile (scalar ops, memory accesses) that the cost estimators are
   validated against. *)

type rt =
  | RInt of int
  | RFloat of float
  | RBuf of buf  (* tensors and memrefs share a dense float buffer *)
  | RToken

and buf = { shape : int list; data : float array; space : Types.mem_space }

exception Runtime_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type profile = {
  mutable scalar_ops : int;
  mutable loads : int;
  mutable stores : int;
  mutable tensor_elems : int;  (* elements produced by tensor ops *)
  mutable calls : int;
  mutable crypto_bytes : int;
}

let new_profile () =
  { scalar_ops = 0; loads = 0; stores = 0; tensor_elems = 0; calls = 0;
    crypto_bytes = 0 }

type env = {
  ctx : Ir.ctx;
  modul : Ir.modul option;
  bindings : (int, rt) Hashtbl.t;
  profile : profile;
  mutable steps : int;
  max_steps : int;
}

let make_env ?(max_steps = 100_000_000) ?modul ctx =
  { ctx; modul; bindings = Hashtbl.create 64; profile = new_profile ();
    steps = 0; max_steps }

let bind env (v : Ir.value) rt = Hashtbl.replace env.bindings v.vid rt

let value env (v : Ir.value) =
  match Hashtbl.find_opt env.bindings v.vid with
  | Some rt -> rt
  | None -> fail "unbound value %%%d" v.vid

let as_int = function
  | RInt i -> i
  | RFloat f -> int_of_float f
  | _ -> fail "expected integer"

let as_float = function
  | RFloat f -> f
  | RInt i -> float_of_int i
  | _ -> fail "expected float"

let as_buf = function RBuf b -> b | _ -> fail "expected tensor/memref"

let num_elems shape = List.fold_left ( * ) 1 shape

let buf ?(space = Types.Host) shape data = RBuf { shape; data; space }
let zeros ?(space = Types.Host) shape =
  buf ~space shape (Array.make (num_elems shape) 0.0)

let tensor_of_array shape a = buf shape (Array.copy a)

(* Row-major linearization. *)
let linear_index shape idxs =
  let rec go shape idxs acc =
    match (shape, idxs) with
    | [], [] -> acc
    | d :: ds, i :: is ->
        if i < 0 || i >= d then fail "index %d out of bounds (dim %d)" i d
        else go ds is ((acc * d) + i)
    | _ -> fail "rank mismatch in indexing"
  in
  go shape idxs 0

let ew_fun2 = function
  | "add" -> ( +. )
  | "sub" -> ( -. )
  | "mul" -> ( *. )
  | "div" -> ( /. )
  | "max" -> Float.max
  | "min" -> Float.min
  | k -> fail "unknown binary elementwise kind %S" k

let ew_fun1 = function
  | "relu" -> fun x -> Float.max 0.0 x
  | "sigmoid" -> fun x -> 1.0 /. (1.0 +. exp (-.x))
  | "tanh" -> Float.tanh
  | "exp" -> exp
  | "neg" -> fun x -> -.x
  | "sqrt" -> sqrt
  | k -> fail "unknown unary elementwise kind %S" k

(* Einsum-style contraction: spec "ij,jk->ik" with one or two operands. *)
let einsum spec (inputs : buf list) : buf =
  let lhs, rhs =
    match String.index_opt spec '>' with
    | Some i when i > 0 && spec.[i - 1] = '-' ->
        (String.sub spec 0 (i - 1), String.sub spec i (String.length spec - i))
    | _ -> fail "bad contraction spec %S" spec
  in
  let rhs = String.sub rhs 1 (String.length rhs - 1) in
  let in_specs = String.split_on_char ',' lhs in
  if List.length in_specs <> List.length inputs then
    fail "contraction arity mismatch";
  (* label -> extent *)
  let extents = Hashtbl.create 8 in
  List.iter2
    (fun spec (b : buf) ->
      if String.length spec <> List.length b.shape then
        fail "contraction rank mismatch for %S" spec;
      List.iteri
        (fun i d ->
          let l = spec.[i] in
          match Hashtbl.find_opt extents l with
          | Some d' when d' <> d -> fail "inconsistent extent for label %c" l
          | _ -> Hashtbl.replace extents l d)
        b.shape)
    in_specs inputs;
  let out_labels = List.init (String.length rhs) (String.get rhs) in
  let all_labels =
    Hashtbl.fold (fun l _ acc -> l :: acc) extents []
    |> List.sort_uniq compare
  in
  let sum_labels = List.filter (fun l -> not (List.mem l out_labels)) all_labels in
  let out_shape = List.map (Hashtbl.find extents) out_labels in
  let out = Array.make (num_elems out_shape) 0.0 in
  (* iterate over full index space *)
  let loop_labels = out_labels @ sum_labels in
  let loop_extents = List.map (Hashtbl.find extents) loop_labels in
  let assign = Hashtbl.create 8 in
  let input_val spec (b : buf) =
    let idxs = List.init (String.length spec) (fun i -> Hashtbl.find assign spec.[i]) in
    b.data.(linear_index b.shape idxs)
  in
  let rec go labels extents =
    match (labels, extents) with
    | [], [] ->
        let prod =
          List.fold_left2
            (fun acc spec b -> acc *. input_val spec b)
            1.0 in_specs inputs
        in
        let out_idx =
          if out_labels = [] then 0
          else linear_index out_shape (List.map (Hashtbl.find assign) out_labels)
        in
        out.(out_idx) <- out.(out_idx) +. prod
    | l :: ls, e :: es ->
        for i = 0 to e - 1 do
          Hashtbl.replace assign l i;
          go ls es
        done
    | _ -> assert false
  in
  go loop_labels loop_extents;
  { shape = out_shape; data = out; space = Types.Host }

let step env =
  env.steps <- env.steps + 1;
  if env.steps > env.max_steps then fail "interpreter step budget exceeded"

(* Evaluate the single-block region's body and return values yielded by the
   trailing terminator (scf.yield / hw.yield / func.return). *)
let rec eval_region_yield env (r : Ir.region) args =
  match r with
  | [ b ] -> (
      List.iter2 (fun v a -> bind env v a) b.bargs args;
      let rec go = function
        | [] -> []
        | [ (last : Ir.op) ]
          when List.mem last.name [ "scf.yield"; "hw.yield"; "func.return" ] ->
            List.map (value env) last.operands
        | o :: rest -> eval_op env o; go rest
      in
      go b.body)
  | _ -> fail "expected single-block region"

and eval_op env (o : Ir.op) =
  step env;
  let p = env.profile in
  let bind1 rt = bind env (Ir.result o) rt in
  match o.name with
  | "arith.constant" -> (
      match Ir.attr "value" o with
      | Some (Attr.Int i) ->
          if Types.is_float_scalar (Ir.result o).vty then bind1 (RFloat (float_of_int i))
          else bind1 (RInt i)
      | Some (Attr.Float f) -> bind1 (RFloat f)
      | _ -> fail "arith.constant: bad value")
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.shli" | "arith.shri" -> (
      p.scalar_ops <- p.scalar_ops + 1;
      let a = as_int (value env (List.nth o.operands 0)) in
      let b = as_int (value env (List.nth o.operands 1)) in
      (* the only integer op the fold declines is division by zero *)
      match Dialect_arith.int_fold o.name a b with
      | Some r -> bind1 (RInt r)
      | None -> fail "division by zero")
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
  | "arith.minf" ->
      p.scalar_ops <- p.scalar_ops + 1;
      let a = as_float (value env (List.nth o.operands 0)) in
      let b = as_float (value env (List.nth o.operands 1)) in
      bind1 (RFloat (Option.get (Dialect_arith.float_fold o.name a b)))
  | "arith.negf" | "arith.sqrtf" | "arith.expf" ->
      let a = as_float (value env (List.hd o.operands)) in
      bind1 (RFloat (Option.get (Dialect_arith.float_unary_fold o.name a)))
  | "arith.cmpi" | "arith.cmpf" ->
      p.scalar_ops <- p.scalar_ops + 1;
      let a = value env (List.nth o.operands 0) in
      let b = value env (List.nth o.operands 1) in
      let c =
        match o.name with
        | "arith.cmpi" -> compare (as_int a) (as_int b)
        | _ -> compare (as_float a) (as_float b)
      in
      let pred =
        match Option.bind (Ir.attr_str "predicate" o) Dialect_arith.cmp_pred_of_name with
        | Some p -> p
        | None -> fail "cmp: bad predicate"
      in
      bind1 (RInt (if Dialect_arith.cmp_fold pred c then 1 else 0))
  | "arith.select" ->
      let c = as_int (value env (List.nth o.operands 0)) in
      bind1 (value env (List.nth o.operands (if c <> 0 then 1 else 2)))
  | "arith.cast" -> (
      let v = value env (List.hd o.operands) in
      match (Ir.result o).vty with
      | t when Types.is_float_scalar t -> bind1 (RFloat (as_float v))
      | t when Types.is_int_scalar t -> bind1 (RInt (as_int v))
      | _ -> bind1 v)
  | "scf.for" -> (
      match (o.operands, o.regions) with
      | lo :: hi :: stp :: iter_init, [ region ] ->
          let lo = as_int (value env lo) in
          let hi = as_int (value env hi) in
          let stp = as_int (value env stp) in
          if stp <= 0 then fail "scf.for: step must be positive";
          let init = List.map (value env) iter_init in
          let rec loop i acc =
            if i >= hi then acc
            else
              let yielded = eval_region_yield env region (RInt i :: acc) in
              loop (i + stp) yielded
          in
          let final = loop lo init in
          List.iter2 (fun r v -> bind env r v) o.results final
      | _ -> fail "scf.for: malformed")
  | "scf.parallel" -> (
      match (o.operands, o.regions) with
      | [ lo; hi; stp ], [ region ] ->
          let lo = as_int (value env lo) in
          let hi = as_int (value env hi) in
          let stp = as_int (value env stp) in
          if stp <= 0 then fail "scf.parallel: step must be positive";
          let i = ref lo in
          while !i < hi do
            ignore (eval_region_yield env region [ RInt !i ]);
            i := !i + stp
          done
      | _ -> fail "scf.parallel: malformed")
  | "scf.if" -> (
      let c = as_int (value env (List.hd o.operands)) in
      match o.regions with
      | [ then_r; else_r ] ->
          let vals = eval_region_yield env (if c <> 0 then then_r else else_r) [] in
          List.iter2 (fun r v -> bind env r v) o.results vals
      | [ then_r ] -> if c <> 0 then ignore (eval_region_yield env then_r [])
      | _ -> fail "scf.if: malformed")
  | "scf.yield" | "hw.yield" | "func.return" ->
      (* handled by eval_region_yield; reaching here means mid-block *)
      fail "%s outside region tail" o.name
  | "memref.alloc" -> (
      match (Ir.result o).vty with
      | Types.Memref { shape; space; _ } ->
          let dyn = ref (List.map (fun v -> as_int (value env v)) o.operands) in
          let shape =
            List.map
              (function
                | Types.Static d -> d
                | Types.Dyn -> (
                    match !dyn with
                    | d :: rest -> dyn := rest; d
                    | [] -> fail "memref.alloc: missing dynamic extent"))
              shape
          in
          bind1 (zeros ~space shape)
      | _ -> fail "memref.alloc: bad result type")
  | "memref.dealloc" -> ()
  | "memref.load" ->
      p.loads <- p.loads + 1;
      let b = as_buf (value env (List.hd o.operands)) in
      let idxs = List.map (fun v -> as_int (value env v)) (List.tl o.operands) in
      let x = b.data.(linear_index b.shape idxs) in
      if Types.is_int_scalar (Ir.result o).vty then bind1 (RInt (int_of_float x))
      else bind1 (RFloat x)
  | "memref.store" ->
      p.stores <- p.stores + 1;
      let v = as_float (value env (List.nth o.operands 0)) in
      let b = as_buf (value env (List.nth o.operands 1)) in
      let idxs =
        List.map (fun v -> as_int (value env v)) (List.tl (List.tl o.operands))
      in
      b.data.(linear_index b.shape idxs) <- v
  | "memref.copy" ->
      let src = as_buf (value env (List.nth o.operands 0)) in
      let dst = as_buf (value env (List.nth o.operands 1)) in
      if Array.length src.data <> Array.length dst.data then
        fail "memref.copy: size mismatch";
      Array.blit src.data 0 dst.data 0 (Array.length src.data);
      p.loads <- p.loads + Array.length src.data;
      p.stores <- p.stores + Array.length src.data
  | "memref.transfer" -> (
      let b = as_buf (value env (List.hd o.operands)) in
      match (Ir.result o).vty with
      | Types.Memref { space; _ } ->
          bind1 (RBuf { b with data = Array.copy b.data; space })
      | _ -> fail "memref.transfer: bad result type")
  | "tensor.fill" -> (
      let s = as_float (value env (List.hd o.operands)) in
      match (Ir.result o).vty with
      | Types.Tensor _ as t ->
          let shape = Types.static_shape_exn t in
          p.tensor_elems <- p.tensor_elems + num_elems shape;
          bind1 (buf shape (Array.make (num_elems shape) s))
      | _ -> fail "tensor.fill: bad result type")
  | "tensor.elementwise" -> (
      let kind = Option.value ~default:"" (Ir.attr_str "kind" o) in
      match o.operands with
      | [ a ] ->
          let a = as_buf (value env a) in
          let f = ew_fun1 kind in
          p.tensor_elems <- p.tensor_elems + Array.length a.data;
          bind1 (buf a.shape (Array.map f a.data))
      | [ a; b ] ->
          let a = as_buf (value env a) in
          let b = as_buf (value env b) in
          if a.shape <> b.shape then fail "tensor.elementwise: shape mismatch";
          let f = ew_fun2 kind in
          p.tensor_elems <- p.tensor_elems + Array.length a.data;
          bind1 (buf a.shape (Array.map2 f a.data b.data))
      | _ -> fail "tensor.elementwise: arity")
  | "tensor.scale" ->
      let s = as_float (value env (List.nth o.operands 0)) in
      let a = as_buf (value env (List.nth o.operands 1)) in
      p.tensor_elems <- p.tensor_elems + Array.length a.data;
      bind1 (buf a.shape (Array.map (fun x -> s *. x) a.data))
  | "tensor.matmul" -> (
      let a = as_buf (value env (List.nth o.operands 0)) in
      let b = as_buf (value env (List.nth o.operands 1)) in
      match (a.shape, b.shape) with
      | [ m; k ], [ k'; n ] when k = k' ->
          let out = Array.make (m * n) 0.0 in
          for i = 0 to m - 1 do
            for j = 0 to n - 1 do
              let acc = ref 0.0 in
              for l = 0 to k - 1 do
                acc := !acc +. (a.data.((i * k) + l) *. b.data.((l * n) + j))
              done;
              out.((i * n) + j) <- !acc
            done
          done;
          p.tensor_elems <- p.tensor_elems + (m * n);
          p.scalar_ops <- p.scalar_ops + (2 * m * n * k);
          bind1 (buf [ m; n ] out)
      | _ -> fail "tensor.matmul: shape mismatch")
  | "tensor.transpose" -> (
      let a = as_buf (value env (List.hd o.operands)) in
      match a.shape with
      | [ m; n ] ->
          let out = Array.make (m * n) 0.0 in
          for i = 0 to m - 1 do
            for j = 0 to n - 1 do
              out.((j * m) + i) <- a.data.((i * n) + j)
            done
          done;
          p.tensor_elems <- p.tensor_elems + (m * n);
          bind1 (buf [ n; m ] out)
      | _ -> fail "tensor.transpose: rank-2 required")
  | "tensor.reshape" -> (
      let a = as_buf (value env (List.hd o.operands)) in
      match (Ir.result o).vty with
      | Types.Tensor _ as t ->
          let shape = Types.static_shape_exn t in
          if num_elems shape <> Array.length a.data then
            fail "tensor.reshape: element count mismatch";
          bind1 (buf shape (Array.copy a.data))
      | _ -> fail "tensor.reshape: bad result type")
  | "tensor.reduce" ->
      let a = as_buf (value env (List.hd o.operands)) in
      let kind = Option.value ~default:"add" (Ir.attr_str "kind" o) in
      p.scalar_ops <- p.scalar_ops + Array.length a.data;
      let r =
        match kind with
        | "add" -> Array.fold_left ( +. ) 0.0 a.data
        | "mul" -> Array.fold_left ( *. ) 1.0 a.data
        | "max" -> Array.fold_left Float.max neg_infinity a.data
        | "min" -> Array.fold_left Float.min infinity a.data
        | k -> fail "tensor.reduce: unknown kind %S" k
      in
      bind1 (RFloat r)
  | "tensor.contract" ->
      let spec =
        match Ir.attr_str "spec" o with
        | Some s -> s
        | None -> fail "tensor.contract: missing spec"
      in
      let inputs = List.map (fun v -> as_buf (value env v)) o.operands in
      let out = einsum spec inputs in
      p.tensor_elems <- p.tensor_elems + Array.length out.data;
      (* a full contraction (["i->"]) is typed as a scalar *)
      if Types.is_scalar (Ir.result o).Ir.vty then bind1 (RFloat out.data.(0))
      else bind1 (RBuf out)
  | "func.call" -> (
      let callee =
        match Ir.attr_sym "callee" o with
        | Some c -> c
        | None -> fail "func.call: missing callee"
      in
      match env.modul with
      | None -> fail "func.call: no module in scope"
      | Some m -> (
          match Ir.find_func m callee with
          | None -> fail "func.call: @%s not found" callee
          | Some f ->
              p.calls <- p.calls + 1;
              let args = List.map (value env) o.operands in
              let rets = call_func env f args in
              List.iter2 (fun r v -> bind env r v) o.results rets))
  | "sec.classify" | "sec.taint" | "sec.check" | "sec.monitor" ->
      bind1 (value env (List.hd o.operands))
  | "sec.encrypt" | "sec.decrypt" -> (
      (* Semantically a keyed involution on the buffer: enough for the
         compiler tests; real ciphers live in everest_security. *)
      let v = value env (List.nth o.operands 0) in
      let key = value env (List.nth o.operands 1) in
      let k = match key with RInt i -> float_of_int i | RFloat f -> f | _ -> 1.0 in
      match v with
      | RBuf b ->
          p.crypto_bytes <- p.crypto_bytes + (8 * Array.length b.data);
          let f = if String.equal o.name "sec.encrypt" then (fun x -> (x *. 2.0) +. k)
                  else fun x -> (x -. k) /. 2.0 in
          bind1 (RBuf { b with data = Array.map f b.data })
      | RFloat f ->
          p.crypto_bytes <- p.crypto_bytes + 8;
          bind1 (RFloat (if String.equal o.name "sec.encrypt" then (f *. 2.0) +. k
                         else (f -. k) /. 2.0))
      | other -> bind1 other)
  | "sec.mac" ->
      let v = value env (List.hd o.operands) in
      let h = match v with
        | RBuf b -> Array.fold_left (fun acc x -> acc +. x) 0.0 b.data
        | RFloat f -> f
        | RInt i -> float_of_int i
        | RToken -> 0.0
      in
      bind1 (buf [ 32 ] (Array.make 32 h))
  | "df.barrier" | "hw.reconfig" -> bind1 RToken
  | name -> fail "interpreter: unsupported op %S" name

and call_func env (f : Ir.func) args =
  if List.length args <> List.length f.Ir.fargs then
    fail "call @%s: arity mismatch" f.Ir.fname;
  (* fresh frame sharing the profile and module *)
  let frame =
    { env with bindings = Hashtbl.create 64 }
  in
  List.iter2 (fun v a -> bind frame v a) f.Ir.fargs args;
  let rec go = function
    | [] -> []
    | [ (last : Ir.op) ] when String.equal last.name "func.return" ->
        List.map (value frame) last.operands
    | o :: rest -> eval_op frame o; go rest
  in
  go f.Ir.fbody

(* Run function [name] of module [m] on [args]. *)
let run_func ?max_steps ctx m name args =
  match Ir.find_func m name with
  | None -> fail "function @%s not found" name
  | Some f ->
      let env = make_env ?max_steps ~modul:m ctx in
      let rets = call_func env f args in
      (rets, env.profile)
