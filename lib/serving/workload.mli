(** Seeded request generators: the traffic layer's model of "millions of
    users".

    A tenant owns one arrival process over one kernel.  Open-loop tenants
    emit a Poisson stream whose instantaneous rate is modulated by a
    diurnal sinusoid and, optionally, a two-state Markov-modulated burst
    overlay (calm/burst sojourns are exponential, the burst state
    multiplies the rate).  Closed-loop tenants model a fixed user
    population with exponential think times: the next request of a user
    exists only once the previous one resolved, so the fabric materializes
    them during the run via {!next_think}.

    Everything is drawn from per-tenant Park–Miller streams derived from
    the plan seed, so the same (seed, tenants, horizon) always yields the
    identical request list — the property the serving determinism checks
    pin down. *)

type burst = {
  burst_factor : float;  (** Rate multiplier while in the burst state (>= 1). *)
  mean_calm_s : float;  (** Mean sojourn in the calm state. *)
  mean_burst_s : float;  (** Mean sojourn in the burst state. *)
}

type arrival =
  | Open of {
      rate_rps : float;  (** Base mean arrival rate. *)
      diurnal_amplitude : float;  (** Sinusoidal modulation in [0, 1]. *)
      diurnal_period_s : float;
      burst : burst option;
    }
  | Closed of { users : int; think_s : float  (** Mean think time. *) }

type tenant = {
  t_name : string;
  t_kernel : string;  (** The deployed kernel this tenant's requests hit. *)
  t_arrival : arrival;
  t_features : int -> (string * float) list;
      (** Per-request data features for the tuner (keyed by request
          sequence number within the tenant); must be pure. *)
}

(** An open-loop tenant with optional diurnal/burst modulation.
    @raise Invalid_argument unless the rate, the diurnal period and the
    burst sojourns are finite and > 0, the burst factor is finite and
    >= 1, and the amplitude is in [0, 1]. *)
val open_tenant :
  ?diurnal_amplitude:float ->
  ?diurnal_period_s:float ->
  ?burst:burst ->
  ?features:(int -> (string * float) list) ->
  name:string ->
  kernel:string ->
  rate_rps:float ->
  unit ->
  tenant

(** A closed-loop tenant: [users] clients with mean [think_s] think time,
    sending requests without data features.
    @raise Invalid_argument unless [users] > 0 and [think_s] is finite
    and > 0. *)
val closed_tenant :
  name:string ->
  kernel:string ->
  users:int ->
  think_s:float ->
  unit ->
  tenant

type request = {
  rq_id : int;  (** Dense ids in arrival order for pre-generated requests. *)
  rq_tenant : string;
  rq_kernel : string;
  rq_user : int;  (** Closed-loop user index; -1 for open-loop arrivals. *)
  rq_seq : int;  (** Sequence number within the tenant. *)
  rq_arrival_s : float;
  rq_features : (string * float) list;
}

(** All open-loop arrivals in [0, horizon), merged across tenants, sorted
    by arrival time (ties break by tenant order then sequence) and
    numbered densely from 0.  Closed-loop tenants contribute nothing here;
    see {!closed_users}.
    @raise Invalid_argument unless [horizon] is finite and > 0. *)
val generate : ?seed:int -> horizon:float -> tenant list -> request list

(** Live state of one closed-loop user; mutable only through its private
    PRNG stream. *)
type closed_user

val closed_users : ?seed:int -> tenant list -> closed_user list

val user_tenant : closed_user -> string
val user_kernel : closed_user -> string
val user_index : closed_user -> int

(** First arrival of this user, uniformly staggered over one think time. *)
val first_arrival : closed_user -> float

(** Draw the next think time (advances the user's stream). *)
val next_think : closed_user -> float

(** Features for the user's [n]-th request. *)
val user_features : closed_user -> int -> (string * float) list

(** Think-time stream position, for checkpoint/restore: a restored run
    re-derives the user population via {!closed_users} (same seed, same
    order) and overwrites each stream position. *)
val user_rng_state : closed_user -> int

val set_user_rng_state : closed_user -> int -> unit

(** Instantaneous arrival rate of an open-loop tenant at time [t]
    (ignoring the burst overlay); 0 for closed-loop tenants. *)
val rate_at : tenant -> float -> float

(** Stable, platform-independent string hash used to derive per-tenant
    streams (also used by the balancer's hash ring). *)
val stable_hash : string -> int
