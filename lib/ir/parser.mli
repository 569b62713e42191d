(** Recursive-descent parser for the textual IR emitted by {!Printer}. *)

exception Parse_error of string

(** Parse a whole module.  Fresh ids above every parsed value are reserved
    in [ctx].
    @raise Parse_error on malformed input. *)
val parse_module : Ir.ctx -> string -> Ir.modul
