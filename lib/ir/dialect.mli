(** Dialect registry.

    Each operation name is registered with traits and a verifier; the
    module-level verifier ({!Verify}) walks the IR and applies them. *)

type trait =
  | Pure  (** No side effects: eligible for CSE/DCE. *)
  | Commutative
  | Terminator  (** Ends a block (scf.yield, func.return, ...). *)

type op_def = {
  opname : string;
  traits : trait list;
  doc : string;
  verify : Ir.op -> (unit, string) result;
}

(** Register an operation definition (replaces an existing one). *)
val register :
  ?traits:trait list ->
  ?doc:string ->
  string ->
  (Ir.op -> (unit, string) result) ->
  unit

val lookup : string -> op_def option
val has_trait : string -> trait -> bool
val is_pure : Ir.op -> bool

(** {2 Verification helpers for dialect definitions} *)

val ok : (unit, string) result
val err : ('a, Format.formatter, unit, (unit, string) result) format4 -> 'a
val expect_operands : int -> Ir.op -> (unit, string) result
val expect_results : int -> Ir.op -> (unit, string) result
val expect_regions : int -> Ir.op -> (unit, string) result
val expect_attr : string -> Ir.op -> (unit, string) result

(** Apply every check in order, stopping at the first error. *)
val all : (Ir.op -> (unit, string) result) list -> Ir.op -> (unit, string) result

val same_type_operands : Ir.op -> (unit, string) result
val operand_type : int -> Ir.op -> Types.t
val no_verify : Ir.op -> (unit, string) result
