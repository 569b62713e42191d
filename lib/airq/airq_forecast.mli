(** Air-quality forecasting and abatement decisions (§VI-B).

    Couples a weather forecast with the plume model to predict exceedances
    at protected receptors; the operator delays emission-heavy activity on
    forecast exceedances.  The study measures decision quality versus grid
    resolution and the compute budget per forecast hour. *)

type site = {
  sources : Plume.source list;
  receptors : (string * float * float) list;  (** Name, x, y. *)
  threshold_ugm3 : float;
}

val default_site : site

type hour_weather = {
  wind_ms : float;
  wind_dir_rad : float;
  cls : Plume.stability;
}

(** Auto-correlated hourly wind/stability series. *)
val weather_series : hours:int -> unit -> hour_weather array

(** Forecast error model: coarser weather ensembles mispredict wind
    direction and speed more. *)
val perturb_weather : resolution_km:float -> hour_weather array -> hour_weather array

(** Does any receptor exceed the threshold under the given weather? *)
val receptor_exceedance : site -> cells:int -> hour_weather -> bool

type decision_eval = {
  precision : float;
  recall : float;
  f1 : float;
  flops_per_hour : float;
}

(** Compare forecast decisions (perturbed weather, given grid) against the
    fine-grid truth at {!default_site}. *)
val evaluate : ?hours:int -> cells:int -> resolution_km:float -> unit -> decision_eval
