(* Source locations attached to every operation, mirroring MLIR's Location. *)

type t =
  | Unknown
  | File of { file : string; line : int; col : int }
  | Name of string

let unknown = Unknown
let file fname line = File { file = fname; line; col = 0 }
let name n = Name n

let pp ppf = function
  | Unknown -> Fmt.string ppf "loc(unknown)"
  | File { file; line; col } -> Fmt.pf ppf "loc(%s:%d:%d)" file line col
  | Name n -> Fmt.pf ppf "loc(%S)" n

let to_string l = Fmt.str "%a" pp l
