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

(** An expression together with its inferred shape ([[]] = scalar). *)
type expr = { node : node; shape : int list }

and node =
  | Input of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Scale of float * expr
  | Matmul of expr * expr
  | Contract of string * expr list
      (** Einsum spec, e.g. ["ij,jk->ik"]; it also spells transposes
          (["ij->ji"]) and sums (["i->"]). *)

val shape : expr -> int list
val num_elems : int list -> int

(** {2 Constructors} — all raise {!Shape_error} on shape mismatches. *)

val input : string -> int list -> expr
val binop : binop -> expr -> expr -> expr
val add : expr -> expr -> expr

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
val scale : float -> expr -> expr
val matmul : expr -> expr -> expr

(** [contract spec operands] is an einsum-style contraction; extents are
    checked for consistency across operands. *)
val contract : string -> expr list -> expr

(** Free inputs with their shapes, in first-occurrence order, deduplicated. *)
val inputs : expr -> (string * int list) list

(** {2 Reference evaluation} *)

type tensor = { dims : int list; data : float array }

val tensor : int list -> float array -> tensor
val tensor_scalar : float -> tensor

(** [eval env e] evaluates [e] with named inputs from [env].  Kept for
    tests: the reference semantics the lowering and compiler properties
    check the IR interpreter's results against.
    @raise Shape_error on missing or ill-shaped inputs. *)
val eval : (string * tensor) list -> expr -> tensor

(** {2 Cost model} *)

(** Floating-point operations of one evaluation. *)
val flops : expr -> int

(** Bytes touched assuming each input read once and the output written once. *)
val bytes_moved : expr -> int

(** Compact structural serialization (node kinds, operator payloads, input
    names, every shape): two expressions share a fingerprint iff they are
    structurally identical.  Used as the expression half of the compiler's
    estimation-cache keys. *)
val fingerprint : expr -> string
