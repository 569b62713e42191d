(* Origin-destination demand: gravity-model generation with diurnal demand
   profiles (the provisioned O/D matrix of §VI-C). *)

open Everest_ml

type t = {
  n_zones : int;
  trips : float array;  (* row-major: trips per hour from i to j at peak *)
}

let peak_factor hour =
  (* morning and evening commuting peaks *)
  let h = float_of_int (hour mod 24) in
  let bump center width =
    exp (-.((h -. center) ** 2.0) /. (2.0 *. width *. width))
  in
  0.15 +. (1.0 *. bump 8.0 1.5) +. (0.9 *. bump 17.5 2.0)

(* Gravity model: attraction falls with grid distance between zones. *)
let gravity ~n_zones ~total_trips_per_hour ~cols () =
  let rng = Rng.create 13 in
  let weights = Array.init n_zones (fun _ -> 0.5 +. Rng.float rng) in
  let pos i = (i / cols, i mod cols) in
  let raw = Array.make (n_zones * n_zones) 0.0 in
  let total = ref 0.0 in
  for i = 0 to n_zones - 1 do
    for j = 0 to n_zones - 1 do
      if i <> j then begin
        let ri, ci = pos i and rj, cj = pos j in
        let d =
          1.0 +. sqrt (float_of_int (((ri - rj) * (ri - rj)) + ((ci - cj) * (ci - cj))))
        in
        let v = weights.(i) *. weights.(j) /. (d ** 1.5) in
        raw.((i * n_zones) + j) <- v;
        total := !total +. v
      end
    done
  done;
  let scale = total_trips_per_hour /. !total in
  { n_zones; trips = Array.map (fun v -> v *. scale) raw }

let demand (od : t) ~from_zone ~to_zone ~hour =
  od.trips.((from_zone * od.n_zones) + to_zone) *. peak_factor hour
