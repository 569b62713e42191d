(** Greedy pattern-rewrite driver.

    A pattern inspects one op (with access to the defining ops of its
    operands) and either declines or produces replacement ops plus a value
    substitution.  The driver applies patterns to a fixpoint, innermost
    regions first, mirroring MLIR's canonicalization driver. *)

(** Result of a successful match: ops spliced in place of the matched op,
    and a substitution from its old results to new values. *)
type produced = { new_ops : Ir.op list; subst : (Ir.value * Ir.value) list }

type pattern = {
  pname : string;
  benefit : int;  (** Higher-benefit patterns are tried first. *)
  matcher : Ir.ctx -> defs:(int -> Ir.op option) -> Ir.op -> produced option;
      (** [defs vid] is the op defining value [vid], when visible. *)
}

val pattern :
  ?benefit:int ->
  string ->
  (Ir.ctx -> defs:(int -> Ir.op option) -> Ir.op -> produced option) ->
  pattern

(** [fold_to op v new_ops] replaces single-result [op] by value [v],
    splicing [new_ops]; [None] if [op] has several results. *)
val fold_to : Ir.op -> Ir.value -> Ir.op list -> produced option

(** Rewrite statistics: how often each pattern applied. *)
type stats = { mutable applications : (string * int) list }

(** Apply [patterns] over an op list until fixpoint, at most 20 sweeps. *)
val apply_patterns :
  Ir.ctx ->
  pattern list ->
  Ir.op list ->
  Ir.op list * stats

val apply_to_func : Ir.ctx -> pattern list -> Ir.func -> Ir.func * stats

val apply_to_module : Ir.ctx -> pattern list -> Ir.modul -> Ir.modul
