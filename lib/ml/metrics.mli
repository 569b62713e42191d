(** Error metrics for the forecasting use cases. *)

(** All pairwise metrics
    @raise Invalid_argument on empty or mismatched arrays. *)

val mse : float array -> float array -> float
val rmse : float array -> float array -> float
val mae : float array -> float array -> float
val mean : float array -> float

(** Asymmetric energy-market imbalance cost: over-forecasting (buying
    balancing energy) is priced at 60 per unit, three times
    under-forecasting. *)
val imbalance_cost : float array -> float array -> float

(** Binary-event skill on threshold exceedances. *)
type confusion = { tp : int; fp : int; fn : int; tn : int }

val exceedance_confusion : threshold:float -> float array -> float array -> confusion
val precision : confusion -> float
val recall : confusion -> float
val f1 : confusion -> float

(** Linear-interpolated quantile, [q] in [0, 1].
    @raise Invalid_argument on empty arrays. *)
val percentile : float array -> float -> float

val stddev : float array -> float
