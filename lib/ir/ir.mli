(** Core IR structure: SSA values, operations, blocks, regions, functions
    and modules.

    The representation is immutable: rewrites build new operation lists and
    substitute values by identity.  Value identities are allocated from a
    context ({!ctx}) so freshly built fragments never collide. *)

(** An SSA value: a unique id plus its type. *)
type value = { vid : int; vty : Types.t }

(** An operation: name ["dialect.op"], operands, fresh result values,
    attributes, nested regions and a source location. *)
type op = {
  name : string;
  operands : value list;
  results : value list;
  attrs : (string * Attr.t) list;
  regions : region list;
  loc : Loc.t;
}

and block = { bargs : value list; body : op list }
and region = block list

(** Allocation context for fresh value ids. *)
type ctx

val ctx : unit -> ctx
val fresh_value : ctx -> Types.t -> value
val fresh_values : ctx -> Types.t list -> value list

(** Raise the context's counter above every id occurring in [ops]; used
    after parsing, which assigns ids itself. *)
val bump_ctx : ctx -> op list -> unit

val value_equal : value -> value -> bool

(** [op ctx name operands result_types] builds an operation with fresh
    result values. *)
val op :
  ?attrs:(string * Attr.t) list ->
  ?regions:region list ->
  ctx ->
  string ->
  value list ->
  Types.t list ->
  op

(** [result ?n o] is the [n]-th result of [o] (default the first). *)
val result : ?n:int -> op -> value

(** {2 Attribute accessors} *)

val attr : string -> op -> Attr.t option
val attr_str : string -> op -> string option
val attr_sym : string -> op -> string option
val has_attr : string -> op -> bool

(** {2 Regions} *)

val block : ?args:value list -> op list -> block
val simple_region : op list -> region

(** {2 Traversal} — visit nested regions depth-first. *)

val iter_ops : (op -> unit) -> op list -> unit
val fold_ops : ('a -> op -> 'a) -> 'a -> op list -> 'a
val count_ops : op list -> int

(** [substitute subst ops] replaces operand values by id throughout [ops],
    including nested regions. *)
val substitute : (int * value) list -> op list -> op list

(** [clone_ops ctx subst ops] clones [ops] with fresh result values,
    applying [subst] to operands; returns the clones and the extended
    substitution (old result id -> fresh value). *)
val clone_ops : ctx -> (int * value) list -> op list -> op list * (int * value) list

(** {2 Functions and modules} *)

type func = {
  fname : string;
  fargs : value list;
  fret_types : Types.t list;
  fbody : op list;
  fattrs : (string * Attr.t) list;
}

type modul = { mname : string; funcs : func list; mattrs : (string * Attr.t) list }

val func :
  ?attrs:(string * Attr.t) list ->
  string ->
  value list ->
  Types.t list ->
  op list ->
  func

val modul : string -> func list -> modul
val find_func : modul -> string -> func option

val module_op_count : modul -> int
