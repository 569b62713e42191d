(** [tensor] dialect: the data-centric abstraction of the EVEREST DSLs.

    Value-semantics tensor operations from the tensor-expression DSL.  The
    compiler either lowers them to scf/memref loop nests (software
    variants) or outlines chains of them into [hw.kernel] ops (hardware
    variants). *)

open Ir

(** Broadcast a scalar into a tensor of the given type. *)
val fill : ctx -> value -> Types.t -> op

(** Pointwise op; [kind] in add/sub/mul/div/max/min (binary) or
    relu/sigmoid/tanh/exp/neg/sqrt (unary). *)
val elementwise : ctx -> string -> value list -> op

(** Scalar-tensor multiply. *)
val scale : ctx -> value -> value -> op

(** @raise Invalid_argument unless operands are compatible rank-2 tensors. *)
val matmul : ctx -> value -> value -> op

(** Full reduction to a scalar; [kind] in add/mul/max/min. *)
val reduce : ctx -> string -> value -> op

(** Einsum-style contraction with an explicit result type. *)
val contract : ctx -> string -> value list -> Types.t -> op

val ew_kinds : string list
val unary_kinds : string list
val register : unit -> unit
