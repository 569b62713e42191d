(** Back-end: emission of the selected variants.

    Software variants become SYCL-like C++ kernels ("the backend will
    generate software implementation relying on state-of-the-art
    programming models (e.g. SYCL)"); hardware variants reference the
    generated RTL.  The runtime selector receives the variants as
    operating points ({!Variants.to_knowledge}). *)

(** SYCL-like source of a software variant. *)
val emit_sycl :
  kernel:string -> Everest_dsl.Tensor_expr.expr -> Cost_model.sw_params -> string
