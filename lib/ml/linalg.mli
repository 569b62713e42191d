(** Small dense linear algebra used by the learning substrate. *)

type mat = { rows : int; cols : int; data : float array }

(** Zero matrix. *)
val mat : int -> int -> mat

(** @raise Invalid_argument on size mismatch. *)
val of_array : int -> int -> float array -> mat

val get : mat -> int -> int -> float
val set : mat -> int -> int -> float -> unit
val init : int -> int -> (int -> int -> float) -> mat
val copy : mat -> mat

(** @raise Invalid_argument on dimension mismatch. *)
val matmul : mat -> mat -> mat

val matvec : mat -> float array -> float array

(** Gaussian elimination with partial pivoting.
    @raise Failure on singular systems. *)
val solve : mat -> float array -> float array
