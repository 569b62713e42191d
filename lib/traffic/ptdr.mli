(** Probabilistic time-dependent routing (paper refs [37][41]): Monte-Carlo
    sampling of link speeds from the learned profiles yields a travel-time
    distribution per route, from which reliability percentiles and
    risk-averse route choice follow.  This is the kernel EVEREST
    accelerates server-side for millions of navigation clients. *)

type distribution = {
  samples : float array;  (** Travel times (s). *)
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float array -> distribution

(** One Monte-Carlo rollout of a route departing at [depart]; returns the
    trip duration. *)
val rollout :
  Everest_ml.Rng.t -> Roadnet.t -> Profiles.t -> int list -> depart:float -> float

val monte_carlo :
  ?seed:int ->
  Roadnet.t ->
  Profiles.t ->
  Routing.path ->
  depart:float ->
  n_samples:int ->
  distribution

(** Among candidate routes, the one with the best 90th-percentile travel
    time over 200 samples. *)
val reliable_route :
  Roadnet.t ->
  Profiles.t ->
  Routing.path list ->
  depart:float ->
  (Routing.path * float) option

(** (samples, mean, 95% CI half-width) per requested sample count. *)
val convergence :
  Roadnet.t ->
  Profiles.t ->
  Routing.path ->
  depart:float ->
  sample_counts:int list ->
  (int * float * float) list

(** Up to [k] alternative routes by iterative link penalization. *)
val alternatives :
  ?k:int -> Roadnet.t -> Profiles.t -> src:int -> dst:int -> period:int ->
  Routing.path list
