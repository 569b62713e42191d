(** Data-flow graphs for high-level synthesis.

    The HLS flow consumes straight-line scalar code: the per-element body
    of a kernel, built by the compiler ([Hw_lower.dfg_of_expr]).  Each node
    has an operation class that determines its latency and the functional
    unit executing it.  Loads and stores carry the array they touch plus an
    affine view of their index expression, which the memory partitioner
    needs. *)

(** Operation classes, each served by one functional-unit kind. *)
type opclass =
  | Add  (** add/sub/compare/negate (also float). *)
  | Mul
  | Div  (** division, sqrt, exp: long-latency, unpipelined. *)
  | Logic  (** and/or/xor/shift/select. *)
  | Load
  | Store
  | Const
  | Nop  (** casts, wires. *)

val opclass_name : opclass -> string

(** Affine index [coeff * iv + offset]; [Unknown] marks data-dependent
    addressing (the paper's "irregular memory accesses"). *)
type index = Affine of { coeff : int; offset : int } | Unknown

type node = {
  id : int;
  cls : opclass;
  op_name : string;  (** Originating operation, for diagnostics. *)
  preds : int list;  (** Data dependencies (node ids). *)
  array : string option;  (** For Load/Store: array identifier. *)
  index : index;
}

type t = {
  nodes : node array;
  arrays : (string * int) list;  (** Array id -> element count. *)
}

val size : t -> int
val node : t -> int -> node

val count_class : t -> opclass -> int

(** {2 Incremental construction} *)

type builder

val builder : unit -> builder

(** Add a node; returns its id. *)
val add_node :
  builder ->
  ?array:string ->
  ?index:index ->
  opclass ->
  string ->
  int list ->
  int

val declare_array : builder -> string -> int -> unit
val finish : builder -> t

(** Deterministic pseudo-random DFG with the given class mix, for
    scheduling benchmarks. *)
val random : ?seed:int -> n:int -> load_frac:float -> mul_frac:float -> unit -> t
