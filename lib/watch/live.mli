(** Deterministic dashboard rendering over a watch.

    Pure functions of watch state and the caller's [now]: sorted series
    order, first-observation sketch order, fixed-precision floats and an
    ASCII sparkline ramp — two same-seed runs render byte-identical
    dashboards. *)

(** Sparkline over the newest 16 samples, normalized to their own
    min..max. *)
val sparkline : Series.t -> string

(** The text dashboard shown by [everest_cli top]; each sketch shows its
    p50 and p99. *)
val render : Watch.t -> now:float -> string

val to_json : Watch.t -> now:float -> Everest_observe.Json.t

(** [to_json] pretty-printed. *)
val render_json : Watch.t -> now:float -> string
