(** Three-state circuit breaker (closed / open / half-open) over an
    external clock — pass [~now] everywhere, so the same breaker works on
    wall or simulated time.

    Closed counts consecutive failures and opens at the threshold; open
    rejects everything until [cooldown_s] has elapsed, then half-open
    admits up to [half_open_probes] probe calls: one success closes the
    breaker, one failure re-opens it. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type config = {
  failure_threshold : int;
  cooldown_s : float;
  half_open_probes : int;
}

val default_config : config

type t

(** @raise Invalid_argument on non-positive threshold or probe count. *)
val create : ?config:config -> unit -> t

(** Current state, lazily promoting open to half-open after the cooldown. *)
val state : t -> now:float -> state

(** May a call proceed?  Half-open admits a bounded number of probes. *)
val allow : t -> now:float -> bool

(** Feed back one call outcome. *)
val record : t -> now:float -> ok:bool -> unit

(** Times the breaker has opened. *)
val opens : t -> int

(** {2 Checkpoint / restore} *)

type persisted = {
  p_state : state;
  p_failures : int;
  p_opened_at : float;
  p_probes : int;
  p_opens : int;
  p_transitions : (float * state) list;  (** oldest first *)
}

val export : t -> persisted
val import : t -> persisted -> unit
