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
let dict d = Dict d

let ints l = List (List.map (fun i -> Int i) l)

let as_bool = function Bool b -> Some b | _ -> None
let as_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let as_str = function Str s -> Some s | _ -> None
let as_sym = function Sym s -> Some s | _ -> None

let as_ints a =
  match a with
  | List l ->
      List.fold_right
        (fun x acc ->
          match (x, acc) with Int i, Some r -> Some (i :: r) | _ -> None)
        l (Some [])
  | _ -> None

let find key attrs = List.assoc_opt key attrs
let find_str key attrs = Option.bind (find key attrs) as_str
let find_bool key attrs = Option.bind (find key attrs) as_bool
let find_float key attrs = Option.bind (find key attrs) as_float
let find_sym key attrs = Option.bind (find key attrs) as_sym
let find_ints key attrs = Option.bind (find key attrs) as_ints

let set key v attrs = (key, v) :: List.remove_assoc key attrs

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

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y | Sym x, Sym y -> String.equal x y
  | Type x, Type y -> Types.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Dict x, Dict y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           x y
  | _ -> false
