(** Online change detection over a scalar sample stream: a two-sided
    CUSUM.

    The first 8 samples estimate the baseline mean and standard
    deviation, the baseline freezes, and detection then scores each
    sample in baseline-sigma units — the same (drift, threshold) knobs
    work on a 4 ms latency series and a 40%% utilization series.  An
    exactly constant stream can never alarm; any real step scores a huge
    z.

    A detector only scores.  The alert that reads it owns firing and
    rising edges ({!Rules}, through {!Everest_observe.Alarm}). *)

type t

(** Two-sided cumulative sums with allowance [drift]·sigma (default 0.5),
    alarm when either sum exceeds [threshold]·sigma (default 5.0).
    Integrates small sustained shifts a band test misses. *)
val cusum : ?drift:float -> ?threshold:float -> unit -> t

(** Score one sample: true while either sum is over the threshold.
    Always false during the baseline samples. *)
val step : t -> float -> bool
