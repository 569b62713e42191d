(* Attributes: compile-time metadata attached to operations.

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
  | Sym of string  (* reference to a symbol, e.g. a function *)
  | List of t list
  | Dict of (string * t) list

let bool b = Bool b
let int i = Int i
let float f = Float f
let str s = Str s
let sym s = Sym s
let list l = List l

let ints l = List (List.map (fun i -> Int i) l)

let as_str = function Str s -> Some s | _ -> None
let as_sym = function Sym s -> Some s | _ -> None

let find key attrs = List.assoc_opt key attrs
let find_str key attrs = Option.bind (find key attrs) as_str
let find_sym key attrs = Option.bind (find key attrs) as_sym

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec pp ppf = function
  | Unit -> Fmt.string ppf "unit"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%h" f
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | Type t -> Types.pp ppf t
  | Sym s -> Fmt.pf ppf "@%s" s
  | List l -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) l
  | Dict d ->
      Fmt.pf ppf "{%a}"
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any " = ") string pp))
        d
