(** Reference interpreter for the IR.

    Executes arith/scf/memref/tensor/func/sec ops over a small runtime value
    domain.  Used by the test suite to check that compiler transformations
    preserve semantics, and by the platform simulator to obtain ground-truth
    results for software variants.  The interpreter also keeps an operation
    profile that the cost estimators are validated against. *)

(** Runtime values.  Tensors and memrefs share one dense float buffer
    representation. *)
type rt = RInt of int | RFloat of float | RBuf of buf | RToken

and buf = { shape : int list; data : float array; space : Types.mem_space }

exception Runtime_error of string

(** Execution counters accumulated across an evaluation. *)
type profile = {
  mutable scalar_ops : int;
  mutable loads : int;
  mutable stores : int;
  mutable tensor_elems : int;  (** Elements produced by tensor ops. *)
  mutable calls : int;
  mutable crypto_bytes : int;
}

val new_profile : unit -> profile

(** Interpreter state; create one per run. *)
type env

(** [make_env ?max_steps ?modul ctx] builds an environment.  [max_steps]
    bounds the number of evaluated ops (default 10^8); [modul] resolves
    [func.call]. *)
val make_env : ?max_steps:int -> ?modul:Ir.modul -> Ir.ctx -> env

(** {2 Value helpers} *)

val as_int : rt -> int
val as_float : rt -> float
val as_buf : rt -> buf
val buf : ?space:Types.mem_space -> int list -> float array -> rt
val zeros : ?space:Types.mem_space -> int list -> rt

(** Copying constructor from a shape and data array. *)
val tensor_of_array : int list -> float array -> rt

(** Row-major linear index; checks bounds.
    @raise Runtime_error on rank mismatch or out-of-bounds. *)
val linear_index : int list -> int list -> int

(** Einsum-style contraction over dense buffers, e.g. ["ij,jk->ik"]. *)
val einsum : string -> buf list -> buf

(** Evaluate a single op in [env]. *)
val eval_op : env -> Ir.op -> unit

(** Call a function value-to-value within an existing environment. *)
val call_func : env -> Ir.func -> rt list -> rt list

(** [run_func ctx m name args] executes [@name] of [m]; returns the results
    and the execution profile.  Kept for the step-budget test: [?max_steps]
    (default 10{^8}) reaches the budget check without running 10{^8} steps.
    @raise Runtime_error on dynamic errors or step-budget exhaustion. *)
val run_func :
  ?max_steps:int -> Ir.ctx -> Ir.modul -> string -> rt list -> rt list * profile
