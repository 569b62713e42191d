(** Back-end: emission of the selected variants.

    Software variants become SYCL-like C++ kernels ("the backend will
    generate software implementation relying on state-of-the-art
    programming models (e.g. SYCL)"); hardware variants reference the
    generated RTL; variant metadata is serialized for the runtime
    selector. *)

(** SYCL-like source of a software variant. *)
val emit_sycl :
  kernel:string -> Everest_dsl.Tensor_expr.expr -> Cost_model.sw_params -> string

(** Variant metadata as an IR attribute (a list of dictionaries). *)
val metadata : Variants.variant list -> Everest_ir.Attr.t
