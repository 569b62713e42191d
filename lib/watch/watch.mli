(** The watch facade: the series store, windowed sketches, scrape sources
    and rules engine behind one value, ticked from the watched system's
    own control loop.

    A watch only {e reads} the system: sources are pull functions,
    {!observe} is fed values the system computed anyway, and nothing here
    schedules events or draws randomness — which is why a watched run
    stays byte-identical to the unwatched same-seed run. *)

type config = {
  wc_interval_s : float;  (** Scrape cadence on the watched clock. *)
  wc_capacity : int;  (** Samples kept per series. *)
  wc_sketch_bucket_s : float;  (** Windowed-sketch time bucket. *)
  wc_sketch_slots : int;
}

val default_config : config

type t

val create : ?config:config -> ?rules:Rules.rule list -> unit -> t
val store : t -> Series.Store.t

(** Scrape ticks performed. *)
val ticks : t -> int

(** Sketch observations recorded. *)
val samples : t -> int

(** Host wall-clock seconds attributed to watching (scrapes, rule
    evaluation, sketch feeds) — the numerator of the E20 overhead gate. *)
val work_s : t -> float

(** Register a scrape source.  A source with the same name replaces the
    existing one, so re-attaching a watch never double-samples. *)
val add_source : t -> Scrape.t -> unit

(** Called after every completed tick (dashboard followers). *)
val on_tick : t -> (t -> now:float -> unit) -> unit

(** Get or create the named windowed sketch. *)
val sketch :
  t -> name:string -> labels:(string * string) list -> Sketch.t

val find_sketch :
  t -> name:string -> labels:(string * string) list -> Sketch.t option

(** Sketches in first-observation order (deterministic). *)
val sketch_list :
  t -> (string * (string * string) list * Sketch.t) list

(** Feed one sample into the named windowed sketch. *)
val observe :
  t -> now:float -> ?labels:(string * string) list -> string -> float -> unit

(** Force a scrape tick now; returns the alerts that newly fired. *)
val tick : t -> now:float -> Rules.alert_state list

(** Tick when the scrape interval has elapsed since the last tick (always
    ticks on the first call). *)
val maybe_tick : t -> now:float -> unit

(** Alert rising edges across every rule. *)
val alerts_total : t -> int

(** Names of currently firing alerts. *)
val firing : t -> string list

val alert_states : t -> Rules.alert_state list
