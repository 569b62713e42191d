(** Low-cost air-quality sensor network: "massive amounts of (low quality)
    spatial information" (§VI-B).  Sensors sample the true field with bias,
    noise and dropout. *)

type sensor = {
  id : int;
  x : float;
  y : float;
  bias : float;  (** Multiplicative calibration error. *)
  noise_sigma : float;
  dropout : float;  (** Probability a reading is missing. *)
}

type reading = { sensor_id : int; value : float option }

(** Deterministic random deployment of [n] sensors over the domain. *)
val deploy : n:int -> half_extent_m:float -> unit -> sensor list

val sample : Everest_ml.Rng.t -> Plume.grid -> sensor -> reading
val sample_all : Plume.grid -> sensor list -> reading list

(** Median-based robust fusion of readings within [radius_m] of a point. *)
val fused_estimate :
  sensor list -> reading list -> x:float -> y:float -> radius_m:float -> float option
