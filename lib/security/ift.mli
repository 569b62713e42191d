(** Static information-flow tracking over the IR.

    Values carry confidentiality levels (the [sec] dialect lattice); the
    analysis propagates levels through a function body and reports flows
    where higher-level data reaches a sink with lower clearance.
    [sec.encrypt] declassifies: ciphertext is Public. *)

type level = Everest_ir.Dialect_sec.level

type flow_violation = {
  op_name : string;
  source_level : level;
  sink_level : level;
  detail : string;
  vloc : Everest_ir.Loc.t;  (** Location of the sink op. *)
}

val pp_violation : Format.formatter -> flow_violation -> unit

(** Lattice join (maximum). *)
val join : level -> level -> level

(** Violations of one function.  The formal arguments take the function's
    ["everest.security"] attribute when present (the DSL front-end attaches
    it from [Annot.Security]), and Public otherwise.
    Ops with regions join the levels yielded by their region terminators
    into their results. *)
val analyze_func : Everest_ir.Ir.func -> flow_violation list

(** Violations across the module, tagged with the containing function. *)
val analyze_module : Everest_ir.Ir.modul -> (string * flow_violation) list
