(** Day-ahead wind-power forecasting (use case A).

    Pipeline: weather ensemble at a chosen resolution -> per-hour features
    (ensemble mean/std + calendar) -> MLP power model trained on historical
    production -> 24-hour forecast; compared against persistence and
    climatology on MAE and market imbalance cost. *)

type config = {
  resolution_km : float;
  n_members : int;
  hidden : int list;
  epochs : int;
  train_days : int;  (** Clamped so at least 4 test days remain. *)
}

val default_config : config

type forecaster

(** Feature vector of one forecast hour. *)
val features : Weather.ensemble -> Weather.series -> int -> float array

(** Train on the first [train_days] of the default farm; returns the
    forecaster plus the truth, production and ensemble used. *)
val train :
  ?cfg:config ->
  Weather.params ->
  forecaster * Weather.series * float array * Weather.ensemble

(** 24-hour forecast starting at [from_hour]. *)
val predict :
  forecaster -> Weather.ensemble -> Weather.series -> from_hour:int -> float array

(** Yesterday-equals-today baseline. *)
val persistence : float array -> from_hour:int -> float array

(** Hour-of-day training average baseline. *)
val climatology : float array -> train_hours:int -> from_hour:int -> float array

type eval = {
  mae_kw : float;
  rmse_kw : float;
  imbalance_eur : float;
  ramp_recall : float;  (** Detected fraction of >30%-of-rated hourly ramps. *)
}

(** Day-ahead evaluation over the test days: (model, persistence,
    climatology). *)
val evaluate : ?cfg:config -> Weather.params -> eval * eval * eval

(** The headline study: per resolution, (resolution, model MAE, imbalance
    cost, flop/member). *)
val resolution_sweep :
  ?resolutions:float list -> Weather.params -> (float * float * float * float) list
