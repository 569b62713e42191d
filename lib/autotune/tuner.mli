(** The runtime autotuner: selection plus online adaptation.

    Wraps the selector with an observation loop: after every execution the
    measured metrics update the knowledge (EMA), so sustained drifts in the
    system state move future selections — the "dynamic hardware-software
    adaptation strategy" of Fig. 2.  Hysteresis keeps the current variant
    unless a challenger beats it by more than 10%, preventing thrashing
    between statistically indistinguishable variants.

    The tuner writes no metrics.  [selections] and [switches] count its
    decisions; the orchestrator publishes them as [tuner_*] gauges and
    observes [tuner_observed_time_s] where it calls {!observe}. *)

type t = {
  knowledge : Knowledge.t;
  goal : Goal.t;
  alpha : float;  (** EMA factor for observations. *)
  mutable last : Selector.decision option;
  mutable selections : int;
  mutable switches : int;
}

val create : Knowledge.t -> Goal.t -> t

(** Select the variant for the current [features], applying hysteresis
    against the previous choice. *)
val select : t -> features:(string * float) list -> Selector.decision option

(** Feed a measurement back into the knowledge. *)
val observe :
  t ->
  variant:string ->
  features:(string * float) list ->
  measured:Knowledge.metrics ->
  unit

(** {2 Checkpoint / restore} *)

(** Knowledge points, hysteresis anchor (last variant name) and counters. *)
type persisted = {
  p_points : Knowledge.point list;
  p_last_variant : string option;
  p_selections : int;
  p_switches : int;
}

val export : t -> persisted
val import : t -> persisted -> unit
