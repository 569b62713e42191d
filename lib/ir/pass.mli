(** Pass manager: named module-to-module transformations with an
    inter-pass lint hook and timing. *)

type t = { pass_name : string; run : Ir.ctx -> Ir.modul -> Ir.modul }

val make : string -> (Ir.ctx -> Ir.modul -> Ir.modul) -> t

(** Per-pass execution report. *)
type report = { name : string; seconds : float; ops_before : int; ops_after : int }

val pp_report : Format.formatter -> report -> unit

(** Run the pipeline in order. *)
val run_pipeline : Ir.ctx -> t list -> Ir.modul -> Ir.modul * report list
