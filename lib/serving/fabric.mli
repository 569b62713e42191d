(** The serving fabric: N orchestrator shards behind admission control, a
    balancer, per-shard batchers and auto-allocated worker pools, driven
    by a seeded workload on one fabric-level simulated clock.

    The fabric owns a {!Everest_platform.Desim} clock for arrivals,
    queueing and concurrency; each shard's orchestrator (with its private
    cluster clock) acts as the service-time oracle — a batch executes
    there once and the measured latency, scaled by the batcher's
    amortization model, becomes the batch's service time on the fabric
    clock.  Every decision — workload sample paths, admission, routing,
    batching, scaling, fault verdicts — derives from the config seed and
    plan, so same-seed runs produce byte-identical request logs
    ({!render_log}) and SLO outcomes.

    Resilience wiring: [faults] is a fault plan over shard names
    ([shard0], [shard1], …) evaluated on the fabric clock.  Requests are
    never routed to a dead or breaker-draining shard; queued work on such
    a shard drains to its siblings at the next control tick, and work
    in flight when a shard dies fails and is re-routed (bounded by
    [max_reroutes]). *)

module Slo = Everest_observe.Slo
module Orch = Everest_runtime.Orchestrator

type config = {
  n_shards : int;
  seed : int;  (** Workload seed (fault verdicts come from [faults]). *)
  balancer : Balancer.policy;
  admission : Admission.config;
  batcher : Batcher.config;
  autoscale : Autoscale.config;
  faults : Everest_resilience.Faults.t;  (** Over shard names, fabric time. *)
  max_reroutes : int;  (** Cross-shard retries after a failed execution. *)
  max_queue : int;  (** Per-shard backpressure bound (queued requests). *)
  tenant_slos : Slo.spec list;
      (** Objective template instantiated per tenant (names prefixed with
          the tenant). *)
  alert : Slo.alert_config;
  orch_policy : Orch.policy;  (** Variant selection inside each shard. *)
  orch_max_attempts : int;  (** In-shard retry budget per execution. *)
}

val default_config : n_shards:int -> config

type outcome = Served | Rejected of Admission.reason | Failed of string

type served_request = {
  sr_id : int;
  sr_tenant : string;
  sr_kernel : string;
  sr_shard : int;  (** Shard that resolved it; -1 when rejected. *)
  sr_arrival_s : float;
  sr_done_s : float;
  sr_latency_s : float;  (** done - arrival; 0 for rejections. *)
  sr_outcome : outcome;
  sr_batch : int;  (** Size of the batch that served it (0 if none). *)
  sr_attempts : int;  (** Times routed (1 + re-routes). *)
  sr_variant : string;  (** Variant that served it; "-" otherwise. *)
  sr_degraded : bool;  (** Orchestrator degraded the pick to software. *)
}

type tenant_report = {
  tr_tenant : string;
  tr_requests : int;
  tr_served : int;
  tr_failed : int;
  tr_shed : (Admission.reason * int) list;
  tr_slos : Slo.result list;  (** Batch verdicts over the tenant's log. *)
  tr_alerts : int;  (** Burn-rate alert rising edges during the run. *)
}

type shard_report = {
  sh_id : int;
  sh_served : int;
  sh_failed : int;
  sh_batches : int;
  sh_batched_requests : int;
  sh_workers : int;  (** Final worker count. *)
  sh_peak_workers : int;
}

type result = {
  f_config : config;
  f_horizon_s : float;
  f_makespan_s : float;  (** Last resolution time. *)
  f_log : served_request list;  (** Sorted by request id. *)
  f_tenants : tenant_report list;
  f_shards : shard_report list;
  f_spawned : int;
  f_retired : int;
  f_reroutes : int;
}

(** {2 Crash recovery}

    With recovery enabled, the fabric write-ahead journals every event it
    fires and every served-log entry, and snapshots its live state at
    control-tick boundaries.  A snapshot leaves out what a resumed run
    re-derives: the open-loop arrivals (regenerated from the seed; the
    snapshot counts the fired ones) and the served log (rebuilt from the
    journal segments before the snapshot), so its size does not grow
    with the run.  After a crash, {!resume} restores the newest valid
    snapshot, replay-verifies the journal tail (each re-derived record is
    byte-compared against its journaled one) and finishes the run —
    producing a result byte-identical ({!render_log}, {!render_slos},
    {!render_summary}) to the uninterrupted same-seed run. *)

type recovery = {
  rv_store : Everest_recovery.Store.t;
  rv_snapshot_every_s : float;
      (** Minimum simulated time between snapshots (taken at the first
          control tick past due). *)
}

(** What {!resume} restored: which snapshot anchored the resume, how many
    newer snapshots were rejected (and why), and how much journal tail
    was replay-verified. *)
type restore_report = {
  rr_snapshot_index : int;
  rr_fallbacks : int;
  rr_skipped : (int * string) list;
  rr_replayed : int;
  rr_torn_tail : bool;
}

(** Identity of a run for store compatibility checks: a digest of the
    store schema version, config, tenant names/kernels/arrival processes
    and horizon.  Tenant feature functions are code, not state, and are
    excluded.  A store written under another schema version fails to
    open with [Config_mismatch]. *)
val fingerprint : config -> tenants:Workload.tenant list -> horizon:float -> string

(** Run the workload through the fleet.  [deploy] installs kernels on
    every shard's orchestrator; [registry] receives the [serving_*]
    fabric metrics (default {!Everest_telemetry.Metrics.default}).
    [recovery] enables journaling + snapshotting into the given store;
    {!Everest_recovery.Journal.Crashed} escapes if a crash was armed with
    {!Everest_recovery.Store.arm_crash}.

    [watch] attaches a strictly read-only observer: the metrics registry
    and live fabric gauges (queue depth, busy workers, alive shards,
    outstanding) are scraped on control ticks, per-request latencies feed
    its ["latency"] windowed sketch, and a final scrape follows the run.
    Watching never schedules events or feeds back, so a watched run is
    byte-identical to the unwatched same-seed run.
    @raise Invalid_argument unless [horizon] is finite and > 0. *)
val run :
  ?registry:Everest_telemetry.Metrics.registry ->
  ?recovery:recovery ->
  ?watch:Everest_watch.Watch.t ->
  config ->
  deploy:(Orch.t -> unit) ->
  tenants:Workload.tenant list ->
  horizon:float ->
  result

(** Restore from the newest valid snapshot in [recovery.rv_store],
    rebuild the served log from the journal segments before it,
    replay-verify the journal tail and finish the run.  The store must
    have been written by {!run} under the same (config, tenants, deploy,
    horizon).
    @raise Everest_recovery.Store.Recovery_error when no valid snapshot
    survives, a record before it is damaged, the snapshot does not match
    the freshly built fabric, its regenerated arrivals, its clock or the
    journal before it ([Corrupt]), or replay diverges from the
    journal.
    @raise Invalid_argument unless [horizon] is finite and > 0. *)
val resume :
  ?registry:Everest_telemetry.Metrics.registry ->
  recovery:recovery ->
  config ->
  deploy:(Orch.t -> unit) ->
  tenants:Workload.tenant list ->
  horizon:float ->
  result * restore_report

(** {2 Persisted formats}

    What the journal and snapshots hold.  Each type is declared once as
    a {!Everest_recovery.Codec.t}; [decode] inverts [encode] exactly. *)

(** A typed fabric event: everything scheduled on the fabric clock. *)
type ev =
  | Ev_arrival of Workload.request  (** Fresh arrival passing admission. *)
  | Ev_complete of {
      c_sid : int;
      c_start : float;
      c_batch : Batcher.batch;
      c_entry : Orch.request_log;
    }  (** A batch completion landing back on the fabric clock. *)
  | Ev_flush of int  (** Batcher deadline flush on one shard. *)
  | Ev_spawn of int  (** Delayed autoscale worker-up on one shard. *)
  | Ev_tick  (** Fabric control tick. *)

(** One write-ahead journal record. *)
type record =
  | Fired of int * float * ev  (** An event fired: id, fire time, event. *)
  | Logged of served_request  (** A request resolved: its served-log entry. *)

(** The live fabric state a snapshot holds. *)
type image

module Codecs : sig
  val request : Workload.request Everest_recovery.Codec.t
  val served : served_request Everest_recovery.Codec.t

  (** A leading tag token: [A] arrival, [C] completion, [F] flush, [S]
      spawn, [T] tick. *)
  val ev : ev Everest_recovery.Codec.t

  (** A leading tag token: [E] fired event, then its id, fire time and
      event; [L] served-log entry. *)
  val journal_record : record Everest_recovery.Codec.t

  (** One snapshot body. *)
  val snapshot : image Everest_recovery.Codec.t
end

(** {2 Summary accessors} *)

val served_ok : result -> int
val failed : result -> int
val shed : result -> int

(** Served / (served + failed): success over admitted traffic. *)
val availability : result -> float

(** Served requests per second of horizon. *)
val throughput_rps : result -> float

(** Exact empirical quantile (nearest rank) of served latencies. *)
val latency_quantile : result -> float -> float

(** Requests that shared a batch with at least one other request. *)
val batched_requests : result -> int

(** {2 Deterministic rendering (byte-identity checks)} *)

(** One line per request, by id, with fixed-precision times — two
    same-seed runs must render identically. *)
val render_log : result -> string

(** Per-tenant SLO verdicts in a deterministic textual form. *)
val render_slos : result -> string

(** Human-readable run summary (CLI/bench). *)
val render_summary : result -> string

(** The run's transcript, [render_log r ^ "\n" ^ render_slos r ^ "\n" ^
    render_summary r], written into one buffer: what the recovery drill,
    E19, E20 and the recovery tests compare across runs. *)
val render : result -> string

(** A demo deployment for drills and tests: one kernel, [mm], with a fast
    hardware variant and a software fallback with seeded tuner knowledge,
    mirroring the chaos/observe drill kernel.  Kept for the [format]
    group's dead-shard golden: [?breaker], so the shard dies holding an
    Open breaker whose cooldown has expired. *)
val demo_deploy :
  ?breaker:Everest_resilience.Breaker.config ->
  unit ->
  Orch.t ->
  unit
