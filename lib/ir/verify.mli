(** Structural verification of functions and modules.

    Checks SSA form (each value defined once, defined before use, region
    bodies see enclosing definitions), per-op dialect verifiers, and
    call-graph integrity (callee symbols resolve, arities match). *)

(** A structured diagnostic; [loc] is the location of the offending op
    (shared shape with the [everest_analysis] lint layer). *)
type diag = { in_func : string; op_name : string; message : string; loc : Loc.t }

(** Prints "[func] op: message", appending the location when known. *)
val pp_diag : Format.formatter -> diag -> unit

(** All diagnostics of one function.  [allow_unregistered] suppresses the
    "operation not registered" diagnostic. *)
val verify_func : ?allow_unregistered:bool -> Ir.func -> diag list

(** Per-function diagnostics plus call-graph checks. *)
val verify_module : Ir.modul -> diag list

(** [Ok ()] when the module is clean. *)
val check_module : Ir.modul -> (unit, diag list) result

val errors_to_string : diag list -> string
