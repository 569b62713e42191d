(** Ridge-regularized linear regression via the normal equations — the
    simple learner used as a baseline against the MLP. *)

type t = { weights : float array; bias : float }

(** Kept for PAPER.md §1's ML substrate row (linear regression).  Ridge
    weight 1e-6.
    @raise Invalid_argument on empty input. *)
val fit : float array array -> float array -> t

(** Kept for PAPER.md §1's ML substrate row (linear regression). *)
val predict : t -> float array -> float
