(* Gaussian plume dispersion (the Plum'air core, use case §VI-B).

   Ground-level concentration downwind of elevated point sources with
   Pasquill–Gifford stability-class dispersion coefficients.  Concentrations
   are evaluated on a grid within 10 km of the industrial site. *)

type stability = A | B | C | D | E | F

let stability_of_weather ~wind_ms ~radiation_wm2 =
  (* simplified Pasquill table: strong sun + light wind -> unstable *)
  if radiation_wm2 > 600.0 then if wind_ms < 3.0 then A else if wind_ms < 5.0 then B else C
  else if radiation_wm2 > 300.0 then if wind_ms < 2.0 then B else if wind_ms < 5.0 then C else D
  else if radiation_wm2 > 50.0 then D
  else if wind_ms < 2.0 then F
  else if wind_ms < 5.0 then E
  else D

(* Briggs open-country sigma_y, sigma_z (x in meters). *)
let sigmas cls x =
  let x = Float.max 1.0 x in
  match cls with
  | A -> (0.22 *. x /. sqrt (1.0 +. (0.0001 *. x)), 0.20 *. x)
  | B -> (0.16 *. x /. sqrt (1.0 +. (0.0001 *. x)), 0.12 *. x)
  | C -> (0.11 *. x /. sqrt (1.0 +. (0.0001 *. x)), 0.08 *. x /. sqrt (1.0 +. (0.0002 *. x)))
  | D -> (0.08 *. x /. sqrt (1.0 +. (0.0001 *. x)), 0.06 *. x /. sqrt (1.0 +. (0.0015 *. x)))
  | E -> (0.06 *. x /. sqrt (1.0 +. (0.0001 *. x)), 0.03 *. x /. (1.0 +. (0.0003 *. x)))
  | F -> (0.04 *. x /. sqrt (1.0 +. (0.0001 *. x)), 0.016 *. x /. (1.0 +. (0.0003 *. x)))

type source = {
  sx : float;  (* position, m *)
  sy : float;
  height_m : float;
  emission_gs : float;  (* emission rate, g/s *)
}

(* Concentration (µg/m³) at ground level (z=0), receptor (rx, ry), for wind
   blowing toward +x' where x' is rotated by [wind_dir_rad]. *)
let concentration ~(src : source) ~wind_ms ~wind_dir_rad ~cls ~rx ~ry =
  let u = Float.max 0.5 wind_ms in
  (* rotate receptor into plume coordinates *)
  let dx = rx -. src.sx and dy = ry -. src.sy in
  let cosd = cos wind_dir_rad and sind = sin wind_dir_rad in
  let xd = (dx *. cosd) +. (dy *. sind) in
  let yd = (-.dx *. sind) +. (dy *. cosd) in
  if xd <= 1.0 then 0.0
  else begin
    let sy, sz = sigmas cls xd in
    let h = src.height_m in
    let expo =
      exp (-.(yd *. yd) /. (2.0 *. sy *. sy))
      *. (exp (-.(h *. h) /. (2.0 *. sz *. sz)) *. 2.0)
    in
    (* g/m3 -> µg/m3 *)
    src.emission_gs /. (2.0 *. Float.pi *. u *. sy *. sz) *. expo *. 1e6
  end

type grid = {
  half_extent_m : float;  (* domain is [-E, E]^2 *)
  cells : int;  (* per side *)
  conc : float array;  (* row-major cells x cells *)
}

let cell_coord g i =
  let step = 2.0 *. g.half_extent_m /. float_of_int g.cells in
  let row = i / g.cells and col = i mod g.cells in
  ( -.g.half_extent_m +. ((float_of_int col +. 0.5) *. step),
    -.g.half_extent_m +. ((float_of_int row +. 0.5) *. step) )

(* Evaluate the plume field of several sources on a grid. *)
let field ~cells ~sources ~wind_ms ~wind_dir_rad ~cls () =
  let g = { half_extent_m = 10_000.0; cells; conc = Array.make (cells * cells) 0.0 } in
  for i = 0 to (cells * cells) - 1 do
    let rx, ry = cell_coord g i in
    g.conc.(i) <-
      List.fold_left
        (fun acc src ->
          acc +. concentration ~src ~wind_ms ~wind_dir_rad ~cls ~rx ~ry)
        0.0 sources
  done;
  g

let max_concentration g = Array.fold_left Float.max 0.0 g.conc

(* fraction of cells exceeding a threshold *)
let exceedance_area g ~threshold =
  let n = Array.length g.conc in
  let k = Array.fold_left (fun acc c -> if c >= threshold then acc + 1 else acc) 0 g.conc in
  float_of_int k /. float_of_int n

(* concentration at a receptor, bilinear-free nearest-cell lookup *)
let at g ~x ~y =
  let step = 2.0 *. g.half_extent_m /. float_of_int g.cells in
  let col = int_of_float ((x +. g.half_extent_m) /. step) in
  let row = int_of_float ((y +. g.half_extent_m) /. step) in
  if col < 0 || col >= g.cells || row < 0 || row >= g.cells then 0.0
  else g.conc.((row * g.cells) + col)

(* cost model: flops to evaluate the field *)
let field_flops ~cells ~n_sources = float_of_int (cells * cells * n_sources * 60)
