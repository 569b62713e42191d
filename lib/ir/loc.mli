(** Source locations attached to operations, mirroring MLIR's Location. *)

type t =
  | Unknown
  | File of { file : string; line : int; col : int }
  | Name of string  (** A named location, e.g. a DSL node label. *)

val unknown : t

(** [file name line] is a file location at column 0. *)
val file : string -> int -> t

val name : string -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
