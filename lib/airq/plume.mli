(** Gaussian plume dispersion (the Plum'air core, use case §VI-B).

    Ground-level concentration downwind of elevated point sources with
    Pasquill–Gifford stability-class dispersion coefficients, evaluated on
    a grid within 10 km of the industrial site. *)

(** Pasquill stability classes, A (strongly convective) to F (stable). *)
type stability = A | B | C | D | E | F

(** Simplified Pasquill table from wind speed and solar radiation. *)
val stability_of_weather : wind_ms:float -> radiation_wm2:float -> stability

(** Briggs open-country (sigma_y, sigma_z) at downwind distance x meters. *)
val sigmas : stability -> float -> float * float

type source = {
  sx : float;  (** Position (m). *)
  sy : float;
  height_m : float;
  emission_gs : float;  (** Emission rate (g/s). *)
}

(** Ground-level concentration (µg/m³) at receptor (rx, ry); the wind blows
    toward the direction given in radians. *)
val concentration :
  src:source ->
  wind_ms:float ->
  wind_dir_rad:float ->
  cls:stability ->
  rx:float ->
  ry:float ->
  float

type grid = {
  half_extent_m : float;  (** Domain is [-E, E]². *)
  cells : int;  (** Per side. *)
  conc : float array;  (** Row-major concentrations. *)
}

val cell_coord : grid -> int -> float * float

(** Evaluate the plume field of several sources on a grid over
    [-10 km, 10 km]². *)
val field :
  cells:int ->
  sources:source list ->
  wind_ms:float ->
  wind_dir_rad:float ->
  cls:stability ->
  unit ->
  grid

val max_concentration : grid -> float

(** Fraction of cells at or above the threshold. *)
val exceedance_area : grid -> threshold:float -> float

(** Nearest-cell lookup; 0 outside the domain. *)
val at : grid -> x:float -> y:float -> float

(** Cost model: flops per field evaluation. *)
val field_flops : cells:int -> n_sources:int -> float
