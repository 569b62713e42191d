(** Backward liveness over SSA value ids.  Dead ops are
    {!Everest_ir.Transforms.dead_ops}, the rule DCE applies. *)

open Everest_ir

(** Value ids live on entry to the function.  For a well-formed function
    this is a subset of the formal-argument ids. *)
val live_in : Ir.func -> Lattice.IntSet.t
