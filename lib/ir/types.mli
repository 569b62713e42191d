(** The EVEREST IR type system.

    A small MLIR-like type lattice: scalars, tensors with optionally dynamic
    shapes, memrefs carrying a memory space (host DRAM, FPGA BRAM/HBM,
    remote nodes), stream/token types for the dataflow dialect, and function
    types. *)

(** Scalar element types. *)
type scalar = I1 | I8 | I16 | I32 | I64 | F32 | F64 | Index

(** A dimension is either statically known or dynamic. *)
type dim = Static of int | Dyn

(** Where a buffer lives in the EVEREST memory hierarchy. *)
type mem_space = Host | Device of int | Bram | Hbm | Remote of string

type t =
  | Scalar of scalar
  | Tensor of { elt : scalar; shape : dim list }
      (** Value-semantics tensor (the DSL abstraction). *)
  | Memref of { elt : scalar; shape : dim list; space : mem_space }
      (** Buffer with identity, in a specific memory space. *)
  | Stream of t  (** FIFO channel of elements, used by hw kernels. *)
  | Token  (** Synchronization-only value. *)
  | Func of { args : t list; rets : t list }
  | Opaque of string  (** Dialect-specific opaque type, printed [!name]. *)

(** {2 Constructors} *)

val i1 : t
val i64 : t
val f64 : t
val index : t

(** [tensor elt dims] is a fully static tensor type. *)
val tensor : scalar -> int list -> t

(** [tensor_dyn elt dims] allows dynamic dimensions. *)
val tensor_dyn : scalar -> dim list -> t

(** [memref elt dims] is a static buffer type in {!Host} memory. *)
val memref : scalar -> int list -> t

val func : t list -> t list -> t
val opaque : string -> t

(** {2 Predicates and accessors} *)

val is_scalar : t -> bool
val is_tensor : t -> bool
val is_memref : t -> bool
val is_float_scalar : t -> bool
val is_int_scalar : t -> bool

(** Shape of a tensor/memref. *)
val shape : t -> dim list option

(** Number of elements when the shape is fully static. *)
val num_elements : t -> int option

(** Static shape of a shaped type.
    @raise Invalid_argument on dynamic dims or unshaped types. *)
val static_shape_exn : t -> int list

(** {2 Printing} *)

val scalar_name : scalar -> string
val mem_space_name : mem_space -> string
val pp_dim : Format.formatter -> dim -> unit
val pp : Format.formatter -> t -> unit

(** {2 Equality}

    [equal] is structural; [compatible] additionally treats dynamic
    dimensions as wildcards, which is what operation verifiers use. *)

val equal : t -> t -> bool
val dim_compatible : dim -> dim -> bool
val shape_compatible : dim list -> dim list -> bool
val compatible : t -> t -> bool
