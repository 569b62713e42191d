(** Mesoscopic traffic simulator (§VI-C: "combining both macro and
    microscopic approaches").

    Per period (hour), demand routes on current travel times, link volumes
    accumulate, and BPR volume-delay updates speeds; a few successive-
    averages iterations approximate user equilibrium.  The output — per-
    link per-period speeds — is the "traffic model" consumed by prediction
    and routing. *)

type state = {
  net : Roadnet.t;
  periods : int;
  speeds : float array array;  (** Period -> link -> speed (m/s). *)
  volumes : float array array;  (** Period -> link -> volume (vph). *)
}

val free_flow_state : Roadnet.t -> periods:int -> state

(** All-or-nothing assignment of one period's demand at given speeds. *)
val assign_period : Roadnet.t -> Od.t -> hour:int -> speeds:float array -> float array

(** Run [periods] hours with three equilibrium iterations each. *)
val run : Roadnet.t -> Od.t -> periods:int -> state

val speed : state -> period:int -> link:int -> float
val travel_time : state -> period:int -> link:int -> float
val mean_network_speed : state -> period:int -> float

(** Fraction of links below half their free speed. *)
val congested_fraction : state -> period:int -> float
