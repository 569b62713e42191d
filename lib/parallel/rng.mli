(** Park–Miller minimal-standard PRNG with guarded seeding.

    The multiplicative generator [s <- s * 48271 mod (2^31-1)] has 0 as an
    absorbing state; [create] maps every seed into the period [1, 2^31-2]
    so no seed (0, negatives, multiples of [0x7FFFFFFF]) can freeze the
    stream.  For seeds already inside the period the sequence matches the
    ad-hoc generators this module replaced, keeping historical seeded
    behaviour bit-identical. *)

type t

val create : int -> t

(** Next raw state, in [1, 2^31-2]. *)
val next : t -> int

(** [int t bound] draws uniformly from [0, bound).  Raises [Invalid_argument]
    when [bound <= 0]. *)
val int : t -> int -> int

(** Uniform draw in [0, 1). *)
val float : t -> float

(** Raw stream position, for checkpoint/restore. *)
val state : t -> int

(** Restore a stream position previously read with {!state}.  The value is
    guarded like a seed: it can never install the absorbing state 0. *)
val set_state : t -> int -> unit
