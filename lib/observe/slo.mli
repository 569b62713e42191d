(** Declarative service-level objectives with error budgets and
    multi-window burn-rate alerting, evaluated over simulated time.

    An objective classifies each outcome (one served request, or one
    workflow task) as good or bad.  {!evaluate} is the batch view over a
    whole log; {!monitor} is the online view fed as requests complete,
    implementing the standard fast/slow two-window burn-rate rule: alert
    when *both* a short and a long window burn the error budget faster
    than [burn_threshold], so a short blip does not page but a sustained
    burn does.  Time always comes from the caller ([~now]), so everything
    runs on the simulated clock and stays deterministic. *)

type objective =
  | Availability of { target : float }
      (** Fraction of requests ok; bad = failed; budget = 1-target. *)
  | Latency_quantile of { q : float; limit_s : float }
      (** "q of requests finish within limit_s"; bad = slower than the
          limit (or failed); budget = 1-q. *)
  | Completion_ratio of { target : float }
      (** Availability over task outcomes. *)

type spec = { slo_name : string; objective : objective }

val availability : string -> float -> spec
val latency : string -> q:float -> limit_s:float -> spec
val completion : string -> float -> spec

(** One observed unit: a request (or task) that finished at [o_t_s]. *)
type outcome = { o_t_s : float; o_ok : bool; o_latency_s : float }

(** Exact empirical quantile (nearest-rank): value at index ceil(q*n) in
    [compare] order, where NaNs rank lowest; 0 on an empty list. *)
val exact_quantile : float list -> float -> float

(** {!exact_quantile} of an array's elements, selected in place with
    unboxed comparisons and no allocation; the array is left permuted. *)
val exact_quantile_array : float array -> float -> float

type result = {
  res_name : string;
  res_kind : string;  (** "availability" | "latency" | "completion" *)
  attained : float;  (** Measured value of the objective. *)
  target : float;  (** What the spec demands. *)
  met : bool;
  budget : float;  (** Allowed bad fraction. *)
  budget_used : float;  (** Bad fraction / budget; > 1 means exhausted. *)
  total : int;
  bad : int;
}

(** Batch verdict over a whole log. *)
val evaluate : spec -> outcome list -> result

val evaluate_all : spec list -> outcome list -> result list

(** Counting objectives (availability, completion) from tallies alone — no
    outcome list to materialize.  Raises [Invalid_argument] for latency
    objectives, which need the individual samples. *)
val evaluate_counts : spec -> total:int -> bad:int -> result

(** {2 Online burn-rate monitoring} *)

type alert_config = {
  fast_window_s : float;  (** Short window: catches fresh, fast burns. *)
  slow_window_s : float;  (** Long window: confirms the burn is sustained. *)
  burn_threshold : float;  (** Alert when both windows burn >= this rate. *)
}

(** Both windows at 2x budget burn — conservative enough for the short
    simulated runs these monitors watch.  Callers with a real budget
    window scale fast/slow to ~1/60 and ~1/12 of it (the SRE 5m/1h
    pairing). *)
val default_alert : alert_config

(** An online monitor.  It keeps the events of the trailing slow window
    in a time-sorted buffer, with one cursor and running tallies per
    window.  So {!observe} and {!burn_rates} cost amortised O(1) while
    [now] does not decrease, and allocate a constant amount whatever the
    window holds.  A query at an earlier [now] is still exact; it costs
    the events between the two times.  {!observe} requires [now] to be
    non-decreasing: the monitors run on a simulated clock. *)
type monitor

val monitor : ?alert:alert_config -> spec -> monitor
val monitor_name : monitor -> string

(** Currently alerting (both windows over threshold at last observe). *)
val firing : monitor -> bool

(** Rising edges of the alert so far. *)
val alerts : monitor -> int

(** Kept for tests: the list-oracle property compares outcome counts. *)
val observed : monitor -> int

(** (fast, slow) burn rates — windowed bad fraction over the error
    budget — at time [now].  A window counts the kept events with
    [t >= now -. window_s], whether [now] is before or after the last
    observe. *)
val burn_rates : monitor -> now:float -> float * float

(** Feed one outcome; [latency_s] defaults to 0 (irrelevant for
    availability objectives).  Drops the events older than the slow
    window and updates the firing state.
    @raise Invalid_argument when [now] precedes the newest kept event. *)
val observe : monitor -> now:float -> ?latency_s:float -> ok:bool -> unit -> unit

(** Batch result over everything the monitor has seen (all-time, not
    windowed) — the end-of-run SLO verdict.  Latency monitors report the
    bad fraction against the budget rather than an exact quantile (the
    bounded window does not keep every latency). *)
val snapshot : monitor -> result

(** {2 Checkpoint / restore} *)

(** The monitor's full mutable core; a restored monitor burns and prunes
    byte-identically to one that never stopped.  The kept events stay a
    newest-first list, as snapshots and journals have always stored
    them, so persisted bytes do not depend on the buffer layout; export
    costs O(window), once per snapshot. *)
type monitor_state = {
  ms_events : (float * bool) list;  (** (t, bad), newest first *)
  ms_total : int;
  ms_bad : int;
  ms_last_t : float;
  ms_firing : bool;
  ms_alerts : int;
}

val monitor_export : monitor -> monitor_state

(** Overwrite the monitor with a state from {!monitor_export}.
    @raise Invalid_argument when [ms_events] is not non-increasing in
    time; the monitor is left unchanged. *)
val monitor_import : monitor -> monitor_state -> unit

(** {2 Serialization} *)

val result_to_json : result -> Json.t
val pp_result : Format.formatter -> result -> unit
