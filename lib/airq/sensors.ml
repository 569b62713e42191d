(* Low-cost air-quality sensor network: "massive amounts of (low quality)
   spatial information" (§VI-B).  Sensors sample the true field with bias,
   noise and dropout. *)

open Everest_ml

type sensor = {
  id : int;
  x : float;
  y : float;
  bias : float;  (* multiplicative calibration error *)
  noise_sigma : float;
  dropout : float;  (* probability a reading is missing *)
}

type reading = { sensor_id : int; value : float option }

let deploy ~n ~half_extent_m () =
  let rng = Rng.create 3 in
  List.init n (fun id ->
      { id;
        x = Rng.uniform rng (-.half_extent_m) half_extent_m;
        y = Rng.uniform rng (-.half_extent_m) half_extent_m;
        bias = 1.0 +. Rng.gaussian ~sigma:0.15 rng;
        noise_sigma = 5.0 +. (10.0 *. Rng.float rng);
        dropout = 0.05 +. (0.10 *. Rng.float rng) })

let sample rng (g : Plume.grid) (s : sensor) : reading =
  if Rng.float rng < s.dropout then { sensor_id = s.id; value = None }
  else
    let truth = Plume.at g ~x:s.x ~y:s.y in
    let v = Float.max 0.0 ((s.bias *. truth) +. Rng.gaussian ~sigma:s.noise_sigma rng) in
    { sensor_id = s.id; value = Some v }

let sample_all (g : Plume.grid) sensors =
  let rng = Rng.create 9 in
  List.map (sample rng g) sensors

(* Median-based robust fusion of sensor values near a point. *)
let fused_estimate sensors readings ~x ~y ~radius_m =
  let vals =
    List.filter_map
      (fun (r : reading) ->
        match r.value with
        | None -> None
        | Some v ->
            let s = List.find (fun s -> s.id = r.sensor_id) sensors in
            let d = sqrt (((s.x -. x) ** 2.0) +. ((s.y -. y) ** 2.0)) in
            if d <= radius_m then Some v else None)
      readings
  in
  match vals with
  | [] -> None
  | _ ->
      let arr = Array.of_list vals in
      Array.sort compare arr;
      Some arr.(Array.length arr / 2)
