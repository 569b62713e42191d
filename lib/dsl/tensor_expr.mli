(** Typed tensor-expression eDSL (the CFDlang / TeIL lineage of EVEREST).

    Expressions are built with smart constructors that perform shape
    inference eagerly, so ill-shaped programs are rejected at construction
    time — the "provably safe execution" the paper attributes to typed
    tensor languages.  An expression can be evaluated directly (reference
    semantics), cost-analyzed, or lowered to the tensor dialect of the IR
    ({!Lower}). *)

exception Shape_error of string

type binop = Add | Sub | Mul | Div
type unop = Relu | Sigmoid | Tanh
type reduction = Sum

(** An expression together with its inferred shape ([[]] = scalar). *)
type expr = { node : node; shape : int list }

and node =
  | Input of string
  | Const of float
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Scale of float * expr
  | Matmul of expr * expr
  | Transpose of expr
  | Reshape of expr
  | Reduce of reduction * expr
  | Contract of string * expr list  (** Einsum spec, e.g. ["ij,jk->ik"]. *)

val shape : expr -> int list
val num_elems : int list -> int

(** {2 Constructors} — all raise {!Shape_error} on shape mismatches. *)

val input : string -> int list -> expr
val const : ?shape:int list -> float -> expr
val binop : binop -> expr -> expr -> expr
val add : expr -> expr -> expr
val sub : expr -> expr -> expr
val mul : expr -> expr -> expr

(** Infix elementwise operators. *)
module O : sig
  val ( + ) : expr -> expr -> expr
  val ( - ) : expr -> expr -> expr
  val ( * ) : expr -> expr -> expr
  val ( / ) : expr -> expr -> expr
end

val unop : unop -> expr -> expr
val relu : expr -> expr
val sigmoid : expr -> expr
val tanh_ : expr -> expr
val scale : float -> expr -> expr
val matmul : expr -> expr -> expr
val transpose : expr -> expr
val reshape : int list -> expr -> expr
val sum : expr -> expr

(** [contract spec operands] is an einsum-style contraction; extents are
    checked for consistency across operands. *)
val contract : string -> expr list -> expr

(** Free inputs with their shapes, in first-occurrence order, deduplicated. *)
val inputs : expr -> (string * int list) list

(** {2 Reference evaluation} *)

type tensor = { dims : int list; data : float array }

val tensor : int list -> float array -> tensor
val tensor_scalar : float -> tensor

(** [eval env e] evaluates [e] with named inputs from [env].
    @raise Shape_error on missing or ill-shaped inputs. *)
val eval : (string * tensor) list -> expr -> tensor

(** {2 Cost model} *)

(** Floating-point operations of one evaluation. *)
val flops : expr -> int

(** Bytes touched assuming each input read once and the output written once. *)
val bytes_moved : expr -> int

(** Arithmetic intensity (flops per byte): the key HW/SW partitioning driver. *)
val intensity : expr -> float

(** Compact structural serialization (node kinds, operator payloads, input
    names, every shape): two expressions share a fingerprint iff they are
    structurally identical.  Used as the expression half of the compiler's
    estimation-cache keys. *)
val fingerprint : expr -> string

val pp : Format.formatter -> expr -> unit
val to_string : expr -> string
