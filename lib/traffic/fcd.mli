(** Floating car data: vehicles traverse routes through the simulated city
    and report (link, speed) roughly every 5 seconds — the navigation-
    device data feed of §VI-C. *)

type ping = { vehicle : int; time_s : float; link : int; speed_ms : float }

(** Pings every 5 s for [n_vehicles] random O/D trips departing uniformly
    over the simulated periods; speeds carry measurement noise. *)
val generate : Simulator.state -> n_vehicles:int -> ping list

val count : ping list -> int
val bytes_per_ping : int
val total_bytes : ping list -> int
