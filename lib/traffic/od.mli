(** Origin-destination demand: gravity-model generation with diurnal
    commuting peaks (the provisioned O/D matrix of §VI-C). *)

type t = {
  n_zones : int;
  trips : float array;  (** Row-major trips/hour from i to j at peak. *)
}

(** Diurnal demand multiplier with morning and evening peaks. *)
val peak_factor : int -> float

(** Gravity model: attraction falls with grid distance between zones.
    [cols] gives the zone grid width for the distance metric. *)
val gravity : n_zones:int -> total_trips_per_hour:float -> cols:int -> unit -> t

val demand : t -> from_zone:int -> to_zone:int -> hour:int -> float
