(** Textual form of the IR (MLIR generic-op style).

    {[ %3 = "arith.addf"(%1, %2) {k = v} : (f64, f64) -> (f64) ]}

    Regions print as brace-enclosed blocks; blocks open with a caret header
    listing block arguments.  {!Parser} is the exact inverse, which the test
    suite checks by round-tripping. *)

val pp_value : Format.formatter -> Ir.value -> unit
val pp_value_typed : Format.formatter -> Ir.value -> unit
val pp_attrs : Format.formatter -> (string * Attr.t) list -> unit

(** [pp_op indent ppf o] prints one op at the given indentation. *)
val pp_op : int -> Format.formatter -> Ir.op -> unit

val pp_region : int -> Format.formatter -> Ir.region -> unit
val pp_func : Format.formatter -> Ir.func -> unit
val pp_module : Format.formatter -> Ir.modul -> unit
val module_to_string : Ir.modul -> string
