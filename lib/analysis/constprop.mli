(** Sparse conditional constant propagation over the structured IR.

    When the condition of an [scf.if] is a known constant only the taken
    region is analyzed and only its yield feeds the op results;
    [scf.for] iteration arguments join the facts of the body yield, so
    loop-invariant constants survive the loop.  Folding uses the
    [Dialect_arith] folds {!Everest_ir.Interp} evaluates with (division by
    zero stays varying, [arith.shri] is a logical shift). *)

open Everest_ir

type const = CInt of int | CFloat of float

val const_equal : const -> const -> bool
val pp_const : Format.formatter -> const -> unit

(** Final fact per value id. *)
type result

(** What the analysis knows about a value: never computed ([Unknown]), a
    single compile-time constant ([Known]), or path/input dependent
    ([Varying]). *)
type fact = Unknown | Known of const | Varying

val analyze : Ir.func -> result
val fact : result -> Ir.value -> fact
val fact_vid : result -> int -> fact

(** Pure [arith.*] ops (other than constants) whose single result is a
    known constant, in program order. *)
val foldable : Ir.func -> (Ir.op * const) list
