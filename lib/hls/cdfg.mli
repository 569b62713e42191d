(** Data-flow graph extraction for high-level synthesis.

    The HLS flow consumes straight-line scalar code (loop bodies after the
    compiler has lowered tensor ops to loops).  Each IR operation becomes a
    DFG node with an operation class that determines its latency and the
    functional unit executing it.  Loads and stores carry the array they
    touch plus an affine view of their index expression, which the memory
    partitioner needs. *)

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
  op_name : string;  (** Originating IR op, for diagnostics. *)
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

(** {2 From IR} *)

exception Unsupported of string

(** Operation class of an IR op name.
    @raise Unsupported for ops the HLS flow cannot map. *)
val classify_ir_op : string -> opclass

(** Build a DFG from straight-line IR ops.  [iv] names the loop induction
    variable so load/store indices become affine views; affine arithmetic
    ([iv*c + k]) is recovered through [arith.muli]/[addi] chains. *)
val of_ir_ops : ?iv:Everest_ir.Ir.value -> Everest_ir.Ir.op list -> t

(** Deterministic pseudo-random DFG with the given class mix, for
    scheduling benchmarks. *)
val random : ?seed:int -> n:int -> load_frac:float -> mul_frac:float -> unit -> t
