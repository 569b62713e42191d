(** Bufferization + tensor-to-loops lowering.

    Value-semantics tensor ops become [scf.for] loop nests over 1-D memrefs
    (row-major linearization).  This is the software-lowering leg of Fig. 1
    (the hardware leg builds its HLS input from the kernel expression,
    {!Hw_lower.dfg_of_expr}); the test suite checks semantic equivalence
    against the tensor-level interpreter.

    Supported: fill, elementwise, scale, matmul, transpose, reshape,
    reduce.  [tensor.contract] stays at tensor level. *)

exception Unsupported of string

(** Memref counterpart of a tensor type (1-D, linearized). *)
val buf_type : Everest_ir.Types.t -> Everest_ir.Types.t

(** Lower a function: tensor arguments and results become memrefs.
    @raise Unsupported on dynamic shapes or unhandled tensor ops. *)
val lower_func : Everest_ir.Ir.ctx -> Everest_ir.Ir.func -> Everest_ir.Ir.func
