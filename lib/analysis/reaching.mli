(** Reaching definitions and the dominance-of-definition check. *)

open Everest_ir

type undominated = { u_op : Ir.op; u_vid : int }

(** Every use whose definition does not dominate it, deduplicated, in
    program order, computed by a single scoped walk (dominance is
    syntactic in the structured IR) so the lint gate stays linear in the
    number of ops. *)
val undominated_uses : Ir.func -> undominated list
