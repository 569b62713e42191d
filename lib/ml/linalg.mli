(** Small dense linear algebra used by the learning substrate. *)

type mat = { rows : int; cols : int; data : float array }

(** Zero matrix. *)
val mat : int -> int -> mat

val get : mat -> int -> int -> float
val set : mat -> int -> int -> float -> unit
val init : int -> int -> (int -> int -> float) -> mat

val matvec : mat -> float array -> float array

(** Gaussian elimination with partial pivoting.  Kept for PAPER.md §1's
    ML substrate row: {!Linreg.fit} solves its normal equations with it.
    @raise Failure on singular systems. *)
val solve : mat -> float array -> float array
