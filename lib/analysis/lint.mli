(** Lint: diagnostic rules over IR modules.

    Every rule has a stable EV0xx code, a default severity and a check
    over the whole module.  Diagnostics share their shape with
    {!Everest_ir.Verify.diag} (function, op, message, {!Everest_ir.Loc}
    span) plus code and severity.  Runs are deterministic: rules execute
    in code order and report in program order.

    Rule catalog: EV001 structural verify (error), EV010 dead op
    (warning), EV011 unused function (warning), EV012 unreachable
    function (warning), EV013 constant-foldable arith op (info), EV020
    undominated use (error), EV030 use-after-dealloc (error), EV031
    double-dealloc (error), EV032 leaked alloc (warning), EV033 constant
    index out of bounds (error), EV040 insecure information flow (error),
    EV041 security/placement clearance conflict (error). *)

open Everest_ir

type severity = Error | Warning | Info

val severity_name : severity -> string

type diag = {
  code : string;  (** Stable rule code, e.g. ["EV030"]. *)
  severity : severity;
  in_func : string;
  op_name : string;
  message : string;
  loc : Loc.t;
}

(** Bridge a structural-verification diagnostic (code EV001). *)
val of_verify : Verify.diag -> diag

(** Context for cross-layer rules: clearance of named platform nodes
    (consulted for ["node:NAME"] localities). *)
type ctx = { node_clearance : string -> Dialect_sec.level option }

val default_ctx : ctx

(** Clearance implied by a locality string ("cloud*" => Confidential,
    "edge*"/"fog*" => Internal, "endpoint*"/"sensor*"/"device*" =>
    Public, "node:N" => [ctx.node_clearance N]); [None] when unknown. *)
val clearance_of_locality : ctx -> string -> Dialect_sec.level option

type rule = {
  rule_code : string;
  rule_name : string;
  rule_severity : severity;
  rule_doc : string;
  rule_check : ctx -> Ir.modul -> diag list;
}

val builtin_rules : rule list

(** Add or replace a rule (keyed by code). *)
val register : rule -> unit

(** All registered rules, sorted by code. *)
val all_rules : unit -> rule list

(** Run the registered rules over a module in {!default_ctx}. *)
val run : Ir.modul -> diag list

val errors : diag list -> diag list
val warnings : diag list -> diag list
val has_errors : diag list -> bool

(** Promote every warning to an error (infos are untouched) — the [--strict]
    mode of the CLI lint commands, letting CI enforce a warning-free tree. *)
val promote_warnings : diag list -> diag list
val pp_diag : Format.formatter -> diag -> unit

(** Human-readable listing with a trailing summary line. *)
val render_text : diag list -> string

(** JSON object with a [diagnostics] array and error/warning counts. *)
val render_json : diag list -> string
