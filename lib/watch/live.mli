(** Deterministic dashboard rendering over a watch.

    Pure functions of watch state and the caller's [now]: sorted series
    order, first-observation sketch order, fixed-precision floats and an
    ASCII sparkline ramp — two same-seed runs render byte-identical
    dashboards. *)

(** Sparkline over the newest [width] samples, normalized to their
    own min..max. *)
val sparkline : ?width:int -> Series.t -> string

(** The text dashboard shown by [everest_cli top]. *)
val render : ?spark_width:int -> ?quantiles:float list -> Watch.t -> now:float -> string

val to_json : ?quantiles:float list -> Watch.t -> now:float -> Everest_observe.Json.t

(** [to_json] pretty-printed. *)
val render_json : ?quantiles:float list -> Watch.t -> now:float -> string
