(* The EVEREST IR type system.

   A small MLIR-like type lattice: scalars, tensors with optionally dynamic
   shapes, memrefs carrying a memory space (the platform distinguishes host
   DRAM, FPGA BRAM/HBM and remote memories), stream/token types used by the
   dataflow dialect, and function types. *)

type scalar = I1 | I8 | I16 | I32 | I64 | F32 | F64 | Index

(* A dimension is either statically known or dynamic ([Dyn]). *)
type dim = Static of int | Dyn

type mem_space = Host | Device of int | Bram | Hbm | Remote of string

type t =
  | Scalar of scalar
  | Tensor of { elt : scalar; shape : dim list }
  | Memref of { elt : scalar; shape : dim list; space : mem_space }
  | Stream of t
  | Token
  | Func of { args : t list; rets : t list }
  | Opaque of string  (* dialect-specific types, e.g. "sec.key" *)

let i1 = Scalar I1
let i64 = Scalar I64
let f64 = Scalar F64
let index = Scalar Index

let tensor elt shape = Tensor { elt; shape = List.map (fun d -> Static d) shape }
let tensor_dyn elt shape = Tensor { elt; shape }
let memref elt shape = Memref { elt; shape = List.map (fun d -> Static d) shape; space = Host }
let func args rets = Func { args; rets }
let opaque s = Opaque s

let is_scalar = function Scalar _ -> true | _ -> false
let is_tensor = function Tensor _ -> true | _ -> false
let is_memref = function Memref _ -> true | _ -> false

let is_float_scalar = function Scalar (F32 | F64) -> true | _ -> false
let is_int_scalar = function
  | Scalar (I1 | I8 | I16 | I32 | I64 | Index) -> true
  | _ -> false

let shape = function
  | Tensor { shape; _ } | Memref { shape; _ } -> Some shape
  | _ -> None

(* Number of elements when the shape is fully static. *)
let num_elements t =
  match shape t with
  | None -> None
  | Some dims ->
      List.fold_left
        (fun acc d ->
          match (acc, d) with
          | Some n, Static k -> Some (n * k)
          | _ -> None)
        (Some 1) dims

let static_shape_exn t =
  match shape t with
  | Some dims ->
      List.map (function Static d -> d | Dyn -> invalid_arg "dynamic dim") dims
  | None -> invalid_arg "type has no shape"

let scalar_name = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"
  | Index -> "index"

let mem_space_name = function
  | Host -> "host"
  | Device d -> Printf.sprintf "device<%d>" d
  | Bram -> "bram"
  | Hbm -> "hbm"
  | Remote n -> Printf.sprintf "remote<%s>" n

let pp_dim ppf = function
  | Static d -> Fmt.int ppf d
  | Dyn -> Fmt.string ppf "?"

let rec pp ppf = function
  | Scalar s -> Fmt.string ppf (scalar_name s)
  | Tensor { elt; shape } ->
      Fmt.pf ppf "tensor<%ax%s>" Fmt.(list ~sep:(any "x") pp_dim) shape
        (scalar_name elt)
  | Memref { elt; shape; space } ->
      Fmt.pf ppf "memref<%ax%s, %s>"
        Fmt.(list ~sep:(any "x") pp_dim)
        shape (scalar_name elt) (mem_space_name space)
  | Stream t -> Fmt.pf ppf "stream<%a>" pp t
  | Token -> Fmt.string ppf "token"
  | Func { args; rets } ->
      Fmt.pf ppf "(%a) -> (%a)"
        Fmt.(list ~sep:(any ", ") pp)
        args
        Fmt.(list ~sep:(any ", ") pp)
        rets
  | Opaque s -> Fmt.pf ppf "!%s" s

let rec equal a b =
  match (a, b) with
  | Scalar x, Scalar y -> x = y
  | Tensor a, Tensor b -> a.elt = b.elt && a.shape = b.shape
  | Memref a, Memref b -> a.elt = b.elt && a.shape = b.shape && a.space = b.space
  | Stream x, Stream y -> equal x y
  | Token, Token -> true
  | Func a, Func b ->
      List.length a.args = List.length b.args
      && List.length a.rets = List.length b.rets
      && List.for_all2 equal a.args b.args
      && List.for_all2 equal a.rets b.rets
  | Opaque x, Opaque y -> String.equal x y
  | _ -> false

(* Shape compatibility treats dynamic dimensions as wildcards. *)
let dim_compatible a b =
  match (a, b) with Dyn, _ | _, Dyn -> true | Static x, Static y -> x = y

let shape_compatible sa sb =
  List.length sa = List.length sb && List.for_all2 dim_compatible sa sb

let compatible a b =
  match (a, b) with
  | Tensor x, Tensor y -> x.elt = y.elt && shape_compatible x.shape y.shape
  | Memref x, Memref y ->
      x.elt = y.elt && shape_compatible x.shape y.shape && x.space = y.space
  | _ -> equal a b
