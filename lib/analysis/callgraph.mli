(** Call graph over module functions.

    Edges come from [func.call] @callee, [hw.offload] @kernel and
    [df.task] @kernel references.  Roots are [main] plus functions with an
    [everest.entry] attribute; modules with no root (kernel libraries)
    skip reachability-based classification. *)

open Everest_ir
module SSet : Set.S with type elt = string

type reference = { ref_from : string; ref_to : string }

(** Symbol an op references, if any. *)
val op_callee : Ir.op -> string option

val references : Ir.modul -> reference list
val roots : Ir.modul -> string list
val reachable : Ir.modul -> roots:string list -> SSet.t

(** Non-root functions with no reference to them at all. *)
val unused : Ir.modul -> Ir.func list

(** Referenced functions that are still unreachable from every root. *)
val unreachable : Ir.modul -> Ir.func list
