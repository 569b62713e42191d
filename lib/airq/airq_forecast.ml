(* Air-quality forecasting and abatement decisions (§VI-B).

   The service couples the weather forecast with the plume model to predict
   exceedances around the site over the next hours; the industrial operator
   delays emission-heavy activity when an exceedance at a protected receptor
   is forecast.  The study measures decision quality versus grid resolution
   and the time-to-decision with/without acceleration. *)

open Everest_ml

type site = {
  sources : Plume.source list;
  receptors : (string * float * float) list;  (* name, x, y *)
  threshold_ugm3 : float;
}

let default_site =
  {
    sources =
      [ { Plume.sx = 0.0; sy = 0.0; height_m = 40.0; emission_gs = 120.0 };
        { Plume.sx = 300.0; sy = 150.0; height_m = 25.0; emission_gs = 60.0 } ];
    receptors =
      [ ("school", 2_500.0, 600.0); ("village", -3_000.0, -1_200.0);
        ("hospital", 1_200.0, -2_000.0) ];
    threshold_ugm3 = 50.0;
  }

(* Hourly weather for the plume: wind speed/direction and stability. *)
type hour_weather = { wind_ms : float; wind_dir_rad : float; cls : Plume.stability }

let weather_series ~hours () =
  let rng = Rng.create 21 in
  let dir = ref (Rng.uniform rng 0.0 (2.0 *. Float.pi)) in
  let speed = ref 4.0 in
  Array.init hours (fun h ->
      dir := !dir +. Rng.gaussian ~sigma:0.25 rng;
      speed := Float.max 0.5 (!speed +. Rng.gaussian ~sigma:0.7 rng);
      let radiation =
        Float.max 0.0 (700.0 *. sin (Float.pi *. float_of_int ((h mod 24) - 6) /. 12.0))
      in
      { wind_ms = !speed; wind_dir_rad = !dir;
        cls = Plume.stability_of_weather ~wind_ms:!speed ~radiation_wm2:radiation })

(* Forecast error model: coarser weather ensembles mispredict the wind
   direction/speed more. *)
let perturb_weather ~resolution_km (w : hour_weather array) =
  let rng = Rng.create 77 in
  let dir_err = 0.02 *. resolution_km and spd_err = 0.04 *. resolution_km in
  Array.map
    (fun hw ->
      { hw with
        wind_dir_rad = hw.wind_dir_rad +. Rng.gaussian ~sigma:dir_err rng;
        wind_ms = Float.max 0.5 (hw.wind_ms +. Rng.gaussian ~sigma:spd_err rng) })
    w

(* Does any receptor exceed the threshold under given weather? *)
let receptor_exceedance (site : site) ~cells (hw : hour_weather) =
  let g =
    Plume.field ~cells ~sources:site.sources ~wind_ms:hw.wind_ms
      ~wind_dir_rad:hw.wind_dir_rad ~cls:hw.cls ()
  in
  List.exists
    (fun (_, x, y) -> Plume.at g ~x ~y >= site.threshold_ugm3)
    site.receptors

type decision_eval = {
  precision : float;
  recall : float;
  f1 : float;
  flops_per_hour : float;
}

(* Compare forecast decisions (perturbed weather, given grid resolution)
   against the truth (exact weather, fine grid). *)
let evaluate ?(hours = 96) ~cells ~resolution_km () =
  let site = default_site in
  let truth_weather = weather_series ~hours () in
  let forecast_weather = perturb_weather ~resolution_km truth_weather in
  let truth =
    Array.map (fun hw -> receptor_exceedance site ~cells:64 hw) truth_weather
  in
  let pred =
    Array.map (fun hw -> receptor_exceedance site ~cells hw) forecast_weather
  in
  let conf =
    Metrics.exceedance_confusion ~threshold:0.5
      (Array.map (fun b -> if b then 1.0 else 0.0) pred)
      (Array.map (fun b -> if b then 1.0 else 0.0) truth)
  in
  {
    precision = Metrics.precision conf;
    recall = Metrics.recall conf;
    f1 = Metrics.f1 conf;
    flops_per_hour =
      Plume.field_flops ~cells ~n_sources:(List.length site.sources);
  }
