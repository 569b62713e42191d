(** [scf] dialect: structured control flow.

    [scf.for] carries lower/upper/step operands, iteration arguments and a
    single-block body whose block arguments are [induction-var;
    iter-args...], terminated by [scf.yield]. *)

open Ir

val yield : ctx -> value list -> op

(** [for_ ctx lo hi step body] where [body ctx iv iter_args] returns the
    body ops and the values to yield.  The loop's results are the final
    iteration arguments. *)
val for_ :
  ?iter_args:value list ->
  ?attrs:(string * Attr.t) list ->
  ctx ->
  value ->
  value ->
  value ->
  (ctx -> value -> value list -> op list * value list) ->
  op

val register : unit -> unit
