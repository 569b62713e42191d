(* Day-ahead wind-power forecasting (use case A).

   Pipeline: weather ensemble at chosen resolution -> per-hour features
   (ensemble mean/std of wind + calendar) -> learned power model (MLP on
   historical production) -> 24-hour forecast; compared against persistence
   and climatology baselines, on MAE and market imbalance cost. *)

open Everest_ml

type config = {
  resolution_km : float;
  n_members : int;
  hidden : int list;
  epochs : int;
  train_days : int;
}

let default_config =
  { resolution_km = 12.5; n_members = 10; hidden = [ 16; 8 ]; epochs = 120;
    train_days = 45 }

type forecaster = {
  cfg : config;
  net : Mlp.t;
  norm : Dataset.norm;
  y_mean : float;
  y_std : float;
  farm : Windfarm.farm;
}

let features (e : Weather.ensemble) (truth : Weather.series) h =
  let mean, std = Weather.ensemble_mean_std e h in
  let hod = float_of_int (h mod 24) in
  [| mean; std; mean ** 3.0 /. 1000.0;
     sin (2.0 *. Float.pi *. hod /. 24.0);
     cos (2.0 *. Float.pi *. hod /. 24.0);
     truth.(max 0 (h - 24)).Weather.wind_ms  (* yesterday's observed wind *)
  |]

(* Clamp the training window so at least 4 test days remain. *)
let effective_cfg cfg (p : Weather.params) =
  { cfg with train_days = max 2 (min cfg.train_days (p.Weather.days - 4)) }

let train ?(cfg = default_config) (p : Weather.params) =
  let farm = Windfarm.default_farm in
  let cfg = effective_cfg cfg p in
  let truth = Weather.truth p in
  let power = Windfarm.production farm truth in
  let ensemble =
    Weather.generate ~n_members:cfg.n_members p truth
      ~resolution_km:cfg.resolution_km
  in
  let hours = Array.length truth in
  let train_hours = min hours (cfg.train_days * 24) in
  let xs = Array.init train_hours (fun h -> features ensemble truth h) in
  let ys_raw = Array.sub power 0 train_hours in
  let norm = Dataset.fit_norm xs in
  let y_mean = Metrics.mean ys_raw in
  let y_std = Float.max 1e-9 (Metrics.stddev ys_raw) in
  let xs_n = Array.map (Dataset.normalize norm) xs in
  let ys = Array.map (fun y -> [| (y -. y_mean) /. y_std |]) ys_raw in
  let net =
    Mlp.create ~seed:5 ~layers:((Array.length xs.(0)) :: cfg.hidden @ [ 1 ])
      ~activation:Mlp.Relu ()
  in
  ignore (Mlp.fit ~epochs:cfg.epochs ~lr:0.005 ~batch_size:32 net xs_n ys);
  ({ cfg; net; norm; y_mean; y_std; farm }, truth, power, ensemble)

(* Forecast the horizon [from_hour, from_hour+24). *)
let predict (f : forecaster) (ensemble : Weather.ensemble)
    (truth : Weather.series) ~from_hour =
  Array.init 24 (fun k ->
      let h = from_hour + k in
      let x = Dataset.normalize f.norm (features ensemble truth h) in
      let y = (Mlp.predict f.net x).(0) in
      Float.max 0.0 ((y *. f.y_std) +. f.y_mean))

(* Baselines *)
let persistence (power : float array) ~from_hour =
  Array.init 24 (fun k -> power.(from_hour + k - 24))

let climatology (power : float array) ~train_hours ~from_hour =
  Array.init 24 (fun k ->
      let hod = (from_hour + k) mod 24 in
      let acc = ref 0.0 and n = ref 0 in
      let h = ref hod in
      while !h < train_hours do
        acc := !acc +. power.(!h);
        incr n;
        h := !h + 24
      done;
      !acc /. float_of_int (max 1 !n))

type eval = {
  mae_kw : float;
  rmse_kw : float;
  imbalance_eur : float;
  ramp_recall : float;
}

(* Evaluate day-ahead forecasts over the test days. *)
let evaluate ?(cfg = default_config) (p : Weather.params) =
  let cfg = effective_cfg cfg p in
  let f, truth, power, ensemble = train ~cfg p in
  let hours = Array.length truth in
  let start = cfg.train_days * 24 in
  let days = (hours - start) / 24 - 1 in
  let all_pred = ref [] and all_true = ref [] in
  let all_persist = ref [] and all_climo = ref [] in
  for d = 0 to days - 1 do
    let from_hour = start + (d * 24) in
    let pred = predict f ensemble truth ~from_hour in
    let actual = Array.sub power from_hour 24 in
    all_pred := pred :: !all_pred;
    all_true := actual :: !all_true;
    all_persist := persistence power ~from_hour :: !all_persist;
    all_climo := climatology power ~train_hours:start ~from_hour :: !all_climo
  done;
  let flat l = Array.concat (List.rev !l) in
  let pred = flat all_pred and truth_p = flat all_true in
  let persist = flat all_persist and climo = flat all_climo in
  let rated = Windfarm.rated_farm_kw f.farm in
  let ramp_threshold = 0.3 *. rated in
  (* ramp events: hour-to-hour production change above 30% of rated power *)
  let ramp_conf pred truth =
    let dp = Array.init (Array.length pred - 1) (fun i -> Float.abs (pred.(i + 1) -. pred.(i))) in
    let dt = Array.init (Array.length truth - 1) (fun i -> Float.abs (truth.(i + 1) -. truth.(i))) in
    Metrics.exceedance_confusion ~threshold:ramp_threshold dp dt
  in
  let eval_of pred =
    { mae_kw = Metrics.mae pred truth_p;
      rmse_kw = Metrics.rmse pred truth_p;
      imbalance_eur = Metrics.imbalance_cost pred truth_p /. 1000.0;
      ramp_recall = Metrics.recall (ramp_conf pred truth_p) }
  in
  (eval_of pred, eval_of persist, eval_of climo)

(* The headline study: forecast quality versus ensemble resolution.  Returns
   (resolution_km, model MAE, member flops) rows. *)
let resolution_sweep ?(resolutions = [ 25.0; 12.5; 5.0; 2.5 ]) (p : Weather.params)
    =
  List.map
    (fun r ->
      let cfg = { default_config with resolution_km = r } in
      let model, _, _, _ = train ~cfg p in
      ignore model;
      let e, _, _ = evaluate ~cfg p in
      let flops = Weather.member_flops ~resolution_km:r ~hours:24 in
      (r, e.mae_kw, e.imbalance_eur, flops))
    resolutions
