(** Deterministic pseudo-random numbers for reproducible experiments
    (xorshift64* core with Box–Muller gaussians). *)

type t

val create : int -> t

(** Uniform in [0, 1). *)
val float : t -> float

val uniform : t -> float -> float -> float

(** Uniform integer in [0, bound).
    @raise Invalid_argument on non-positive bounds. *)
val int : t -> int -> int

val gaussian : ?mu:float -> ?sigma:float -> t -> float

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit
