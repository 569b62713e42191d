(** Standard transformations: constant folding, algebraic canonicalization,
    common-subexpression elimination and dead-code elimination. *)

(** Fold binary arith ops and comparisons over constant operands. *)
val fold_constants : Rewrite.pattern

(** x+0, x*1, select on constant condition, and friends. *)
val algebraic_identities : Rewrite.pattern

(** transpose(transpose x) -> x; decrypt(encrypt(x, k), k) -> x. *)
val involutions : Rewrite.pattern

val canonicalize_patterns : Rewrite.pattern list

(** The canonicalization pass (the patterns above, to fixpoint). *)
val canonicalize : Pass.t

(** Value-number pure region-free ops within each block. *)
val cse : Pass.t

(** Pure region-free ops none of whose results is used by a live op,
    anywhere in the function (so chains that only feed dead ops are dead
    too), in program order: one walk counts uses, and a worklist retires
    ops, so a dead chain costs one pass, not one pass per link.  Exactly the ops {!dce}
    deletes, and what lint's EV010 reports. *)
val dead_ops : Ir.func -> Ir.op list

(** Remove the ops {!dead_ops} reports. *)
val dce : Pass.t

(** [canonicalize; cse; dce] — the default middle-end pipeline. *)
val standard_pipeline : Pass.t list
