(* Use case B (§VI-B): air-quality monitoring of an industrial site.
   Gaussian-plume forecasts drive abatement decisions; low-cost sensors and
   the runtime protection layer guard the data stream.
   Run with:  dune exec examples/airq_monitor.exe *)

module P = Everest_airq.Plume
module AF = Everest_airq.Airq_forecast
module Sn = Everest_airq.Sensors
module Prot = Everest_runtime.Protection

let () =
  Format.printf "== EVEREST use case B: air-quality monitoring ==@.";

  (* decision quality vs grid resolution *)
  Format.printf "@.abatement decision quality (48h, 3 receptors):@.";
  Format.printf "  %10s %8s %10s %8s %14s@." "grid" "res(km)" "precision"
    "recall" "Mflop/hour";
  List.iter
    (fun (cells, res) ->
      let e = AF.evaluate ~hours:48 ~cells ~resolution_km:res () in
      Format.printf "  %7dx%-3d %7.1f %10.2f %8.2f %14.2f@." cells cells res
        e.AF.precision e.AF.recall
        (e.AF.flops_per_hour /. 1e6))
    [ (16, 25.0); (32, 12.5); (64, 2.5) ];

  (* a snapshot plume field and the sensor network view *)
  let hw = (AF.weather_series ~hours:1 ()).(0) in
  let g =
    P.field ~cells:48 ~sources:AF.default_site.AF.sources
      ~wind_ms:hw.AF.wind_ms ~wind_dir_rad:hw.AF.wind_dir_rad ~cls:hw.AF.cls ()
  in
  Format.printf "@.snapshot: max ground concentration %.1f ug/m3, %.1f%% of 10km domain above 50@."
    (P.max_concentration g)
    (100.0 *. P.exceedance_area g ~threshold:50.0);
  let sensors = Sn.deploy ~n:80 ~half_extent_m:10_000.0 () in
  let readings = Sn.sample_all g sensors in
  (match Sn.fused_estimate sensors readings ~x:2_500.0 ~y:600.0 ~radius_m:4_000.0 with
  | Some v -> Format.printf "fused sensor estimate near school: %.1f ug/m3@." v
  | None -> Format.printf "no sensor coverage near school@.");

  (* the protection layer guarding the sensor stream *)
  let layer = Prot.create () in
  let s = Prot.register layer in
  for _ = 1 to 200 do
    Prot.train s ~values:[ 20.0; 30.0; 45.0 ] ~bytes:2048 ~latency_s:0.02
  done;
  Prot.finalize s;
  let inject values =
    match Prot.admit layer s ~values ~bytes:2048 ~latency_s:0.02 with
    | Prot.Accepted -> "accepted"
    | Prot.Rejected r -> "rejected: " ^ r
  in
  Format.printf "@.protection layer:@.";
  Format.printf "  clean batch     -> %s@." (inject [ 25.0; 33.0 ]);
  Format.printf "  poisoned batch  -> %s@." (inject [ 1e6 ]);
  Format.printf "  alerts=%d, encryption forced=%b@." layer.Prot.total_alerts
    s.Prot.force_encryption
