(** Construction of HLS-ready data-flow graphs from tensor expressions.

    For hardware variants the compiler extracts the per-element inner-loop
    body of the expression (loads, arithmetic, one store), replicates it
    [unroll] times and hands the DFG to the HLS flow — the "chain of tensor
    operations directly on the FPGA logic" of §III-B. *)

(** Inner-loop body DFG; [unroll] replicates with shifted affine offsets. *)
val dfg_of_expr : ?unroll:int -> Everest_dsl.Tensor_expr.expr -> Everest_hls.Cdfg.t

(** Pipelined trip count of the whole kernel at the given unroll factor. *)
val trips : Everest_dsl.Tensor_expr.expr -> unroll:int -> int
