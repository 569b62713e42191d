(** Attributes: compile-time metadata attached to operations.

    Attributes carry the "data-driven" information EVEREST relies on: data
    characteristics (access patterns, sizes, localities), security
    requirements, and variant/trade-off annotations. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Type of Types.t
  | Sym of string  (** Reference to a symbol (function name), printed [\@f]. *)
  | List of t list
  | Dict of (string * t) list

(** {2 Constructors} *)

val bool : bool -> t
val int : int -> t
val float : float -> t
val str : string -> t
val sym : string -> t
val list : t list -> t

(** [ints l] is a list attribute of integers. *)
val ints : int list -> t

(** {2 Projections} — [None] when the attribute has a different kind. *)

val as_str : t -> string option
val as_sym : t -> string option

(** {2 Attribute lists} — the [(key, value)] dictionaries ops carry. *)

val find : string -> (string * t) list -> t option
val find_str : string -> (string * t) list -> string option
val find_sym : string -> (string * t) list -> string option

val pp : Format.formatter -> t -> unit
