(** Online change detection over scalar sample streams.

    All detectors share one baseline: [warmup] samples estimate the
    baseline mean and standard deviation, the baseline freezes, and
    detection then scores each sample in baseline-sigma units — the same
    (k, threshold) knobs work on a 4 ms latency series and a 40%%
    utilization series.  An exactly constant stream can never alarm;
    any real step scores a huge z.

    A detector only scores.  The alert that reads it owns firing,
    hold-down and rising edges ({!Rules}, through
    {!Everest_observe.Alarm}). *)

type verdict = Ok | Alarm
type t

(** Band test: alarm while |x − ewma| > k·sigma.  Reacts in one sample,
    re-centers on persistent shifts (spikes fire, new normals settle). *)
val ewma : ?alpha:float -> ?k:float -> ?warmup:int -> unit -> t

(** Two-sided cumulative sums with allowance [drift]·sigma, alarm when
    either sum exceeds [threshold]·sigma.  Integrates small sustained
    shifts a band test misses. *)
val cusum : ?drift:float -> ?threshold:float -> ?warmup:int -> unit -> t

(** Page–Hinkley sequential test: cumulative deviation from the running
    mean (minus [delta]·sigma allowance) leaving its historical extremum
    by more than [lambda]·sigma. *)
val page_hinkley : ?delta:float -> ?lambda:float -> ?warmup:int -> unit -> t

(** Score one sample.  Always [Ok] during warmup. *)
val step : t -> float -> verdict

val samples : t -> int
val reset : t -> unit
