(** [arith] dialect: scalar arithmetic, comparisons and casts. *)

open Ir

(** {2 Constants} *)

val const_i : ?ty:Types.t -> ctx -> int -> op
val const_f : ?ty:Types.t -> ctx -> float -> op
val const_index : ctx -> int -> op

(** {2 Binary operations} — result type follows the left operand. *)

val binary : ctx -> string -> value -> value -> op
val addi : ctx -> value -> value -> op
val muli : ctx -> value -> value -> op
val addf : ctx -> value -> value -> op
val subf : ctx -> value -> value -> op
val mulf : ctx -> value -> value -> op
val divf : ctx -> value -> value -> op
val maxf : ctx -> value -> value -> op
val minf : ctx -> value -> value -> op

(** {2 Comparisons and selection} *)

type cmp_pred = Eq | Ne | Lt | Le | Gt | Ge

val cmp_pred_of_name : string -> cmp_pred option

(** {2 Unary operations} *)

val negf : ctx -> value -> op
val sqrtf : ctx -> value -> op
val expf : ctx -> value -> op

(** Value of a constant op, if it is one. *)
val const_value : Ir.op -> Attr.t option

val int_binops : string list
val float_binops : string list

(** {2 Constant folding}

    The ops' semantics on known operands, shared by the canonicalizer's
    [fold-constants] pattern, constant propagation and the reference
    interpreter ({!Interp}).  [None] when the op is not foldable (unknown
    name, integer division by zero). *)

val int_fold : string -> int -> int -> int option
val float_fold : string -> float -> float -> float option
val float_unary_fold : string -> float -> float option

(** [cmp_fold pred c] decides [pred] from a three-way comparison [c]. *)
val cmp_fold : cmp_pred -> int -> bool

(** Register the dialect's op definitions. *)
val register : unit -> unit
