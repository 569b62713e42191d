(** Runtime anomaly monitors and the auto-protection policy.

    "Dedicated hardware monitors will detect anomalies with respect to the
    expected data behaviors (timing patterns, access patterns, typical
    sizes and ranges), activating proper dynamic adaptation in the form of
    auto-protection" (paper §III-B).

    Each monitor learns a baseline during training and flags deviations;
    the policy maps fired monitors to protection actions. *)

type verdict = Normal | Anomalous of string

(** {2 Running statistics (Welford)} *)

type stats = { mutable n : int; mutable mean : float; mutable m2 : float }

val stats : unit -> stats
val observe : stats -> float -> unit
val variance : stats -> float
val stddev : stats -> float

(** {2 Timing monitor} — z-score against the trained distribution. *)

type timing_monitor

val timing : ?threshold_sigma:float -> unit -> timing_monitor
val timing_train : timing_monitor -> float -> unit
val timing_finalize : timing_monitor -> unit

(** Before finalization, samples train instead of checking. *)
val timing_check : timing_monitor -> float -> verdict

(** {2 Value-range monitor} — trained min/max with relative slack. *)

type range_monitor

val range : unit -> range_monitor
val range_train : range_monitor -> float -> unit
val range_finalize : range_monitor -> unit
val range_check : range_monitor -> float -> verdict

(** {2 Access-pattern monitor} — flags bursts of never-seen strides. *)

type access_monitor

(** Kept for PAPER.md §1's security row (the access-pattern monitor), and
    [?burst_threshold] with it: how many never-seen strides make a burst. *)
val access : ?burst_threshold:int -> unit -> access_monitor

(** Kept for PAPER.md §1's security row: learn a stride. *)
val access_train : access_monitor -> int -> unit

(** Kept for PAPER.md §1's security row: end the training phase. *)
val access_finalize : access_monitor -> unit

(** Kept for PAPER.md §1's security row: judge a stride. *)
val access_check : access_monitor -> int -> verdict

(** {2 Size monitor} — flags messages far above the typical size. *)

type size_monitor

val size : unit -> size_monitor
val size_train : size_monitor -> int -> unit
val size_finalize : size_monitor -> unit
val size_check : size_monitor -> int -> verdict

(** {2 Auto-protection policy} *)

type action =
  | Raise_alert
  | Enable_encryption
  | Quarantine_source
  | Switch_variant of string  (** Fall back to a hardened code variant. *)
  | Throttle of float

type event = { monitor : string; reason : string; severity : int }

val classify_event : string -> string -> event

(** Actions for an event, escalating with severity. *)
val policy : event -> action list
