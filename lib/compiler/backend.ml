(* Back-end: emission of the selected variants.

   Software variants are emitted as SYCL-like C++ kernels ("the backend will
   generate software implementation relying on state-of-the-art programming
   models (e.g. SYCL)"); hardware variants reference the generated RTL.
   The runtime selector receives the variants as operating points
   ([Variants.to_knowledge]). *)

open Everest_dsl

let rec emit_expr buf (e : Tensor_expr.expr) =
  let open Tensor_expr in
  match e.node with
  | Input n -> Buffer.add_string buf n
  | Binop (op, a, b) ->
      Buffer.add_char buf '(';
      emit_expr buf a;
      Buffer.add_string buf
        (match op with
        | Add -> " + " | Sub -> " - " | Mul -> " * " | Div -> " / ");
      emit_expr buf b;
      Buffer.add_char buf ')'
  | Unop (op, a) ->
      Buffer.add_string buf
        (match op with
        | Relu -> "sycl::max(0.0f, " | Sigmoid -> "sigmoid(" | Tanh -> "sycl::tanh(");
      emit_expr buf a;
      Buffer.add_char buf ')'
  | Scale (k, a) ->
      Buffer.add_string buf (Printf.sprintf "(%gf * " k);
      emit_expr buf a;
      Buffer.add_char buf ')'
  | Matmul (a, b) ->
      Buffer.add_string buf "matmul(";
      emit_expr buf a;
      Buffer.add_string buf ", ";
      emit_expr buf b;
      Buffer.add_char buf ')'
  | Contract (spec, es) ->
      Buffer.add_string buf (Printf.sprintf "einsum<\"%s\">(" spec);
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          emit_expr buf x)
        es;
      Buffer.add_char buf ')'

let emit_sycl ~kernel (e : Tensor_expr.expr) (p : Cost_model.sw_params) =
  let buf = Buffer.create 512 in
  let ins = Tensor_expr.inputs e in
  Buffer.add_string buf
    (Printf.sprintf "// variant: %s\n" (Cost_model.variant_name p));
  Buffer.add_string buf
    (Printf.sprintf "void %s(sycl::queue &q%s) {\n" kernel
       (String.concat ""
          (List.map
             (fun (n, s) ->
               Printf.sprintf ", sycl::buffer<float,%d> &%s"
                 (max 1 (List.length s)) n)
             ins)));
  (match p.Cost_model.tile with
  | Some t ->
      Buffer.add_string buf
        (Printf.sprintf "  constexpr int TILE = %d;  // blocked for reuse\n" t)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "  // layout: %s\n"
       (Cost_model.layout_name p.Cost_model.layout));
  Buffer.add_string buf
    (Printf.sprintf
       "  q.parallel_for(sycl::nd_range<1>{N, %d}, [=](sycl::nd_item<1> it) {\n"
       p.Cost_model.threads);
  Buffer.add_string buf "    out[it.get_global_id(0)] = ";
  emit_expr buf e;
  Buffer.add_string buf ";\n  });\n}\n";
  Buffer.contents buf
