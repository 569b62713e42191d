(** Trailing-window quantile sketches: a ring of
    {!Everest_telemetry.Metrics} histograms, one per [bucket_s] of caller
    time, answering "p99 over the last W seconds" by merging the slots
    the window covers — O(buckets), independent of how many samples the
    window saw.  Bucketing and the quantile estimator are the registry's
    own, so a windowed and a registry quantile over the same samples
    agree exactly. *)

type t

(** A ring of [slots] histograms covering the trailing
    [slots * bucket_s] seconds. *)
val create : ?bucket_s:float -> ?slots:int -> unit -> t

(** Total coverage in seconds. *)
val span_s : t -> float

(** Negative samples are clamped to 0, as the registry does.
    @raise Invalid_argument when [now] precedes the newest sample. *)
val observe : t -> now:float -> float -> unit

(** Merge of the slots covering [now - window_s, now]. *)
val query : t -> now:float -> window_s:float -> Everest_telemetry.Metrics.histogram
