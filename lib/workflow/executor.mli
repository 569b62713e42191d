(** Plan execution on the simulated platform.

    Each task waits for its inputs, pulls them from a node holding a valid
    copy over the cluster links, runs its chosen implementation on its
    assigned node, and signals completion — the measurable counterpart of
    HyperLoom's distributed executor.  Planned bitstreams are preloaded at
    deployment (cloudFPGA configures roles at allocation).

    Resilience: an {!Everest_resilience.Faults.t} plan injects node
    crash/restart windows, transient failures and link degradation, all
    deterministic in the plan seed; an {!Everest_resilience.Policy.t}
    governs recovery (retry budgets with backoff, plan-relative timeouts,
    speculative re-execution, heartbeat death detection).  Outputs lost
    with a dead node are recomputed from lineage. *)

type stats = {
  makespan : float;
  task_finish : float array;
  bytes_moved : int;
  transfers : int;
  energy_j : float;
  per_node_tasks : (string * int) list;
  retries : int;  (** Re-executions caused by node or transient failures. *)
  timeouts : int;  (** Attempts cancelled by the per-task deadline. *)
  speculative : int;  (** Speculative backup launches. *)
  recomputed : int;  (** Lost outputs recomputed from lineage. *)
  span_log : Everest_telemetry.Trace.span list;
      (** Completed spans of the run when a tracer was passed (one
          ["task:…"] span per execution attempt, one ["xfer:…"] span per
          transfer), newest first; empty under the default no-op tracer.
          The headline counters are derivable from it — see
          {!trace_retries} and friends. *)
  report : Everest_observe.Report.t Lazy.t;
      (** Analytics over the run — critical path with self/wait
          attribution, per-node utilization reconciled against Desim wait
          stats, latency quantiles, a completion SLO — computed only when
          forced.  Untraced runs get a report with counters and quantiles
          but no critical path or utilization (those need the span log). *)
}

(** Raised when recovery can no longer make progress (every node dead, or a
    task's retry budget exhausted with no attempt left in flight); carries
    the stats accumulated up to the failure point. *)
exception Execution_failed of { reason : string; partial : stats }

(** Execute the plan.

    [faults] (default {!Everest_resilience.Faults.none}) is the fault
    plan; {!Everest_resilience.Faults.of_failures} lowers a
    [(node, time)] kill list onto one.  [policy] (default
    {!Everest_resilience.Policy.default}) sets retry budget, backoff,
    timeouts, speculation and heartbeat; the default is inert beyond
    retries, so zero-fault runs behave exactly like the pre-resilience
    executor.

    [tracer] (default {!Everest_telemetry.Trace.noop}) records per-attempt
    task spans and per-transfer spans in simulated time, one track per
    node; [registry] (default {!Everest_telemetry.Metrics.default})
    accumulates [workflow_*] counters and task/transfer histograms.

    [plan_lint] (default [true]) runs {!Planlint.gate} before deployment —
    the pre-run counterpart of [Pipeline.compile ?lint]; pass [false] to
    execute a plan the analyzer rejects (e.g. to reproduce a failure).
    [checkpoint] write-ahead journals every first completion and snapshots
    the executor's resumable digest at {!Checkpoint} boundaries (also
    pruning lineage there, bounding replica-tracking memory and reported by
    the [workflow_lineage_copies] gauge); a {!Checkpoint.resume}d value
    replay-verifies the whole run against the journal.
    @raise Planlint.Plan_invalid when the gate finds error diagnostics.
    @raise Execution_failed when recovery is exhausted.
    @raise Everest_recovery.Journal.Crashed when a crash armed on the
    checkpoint store triggers.
    @raise Everest_recovery.Store.Recovery_error when replay diverges from
    the journal or a snapshot anchor. *)
val execute :
  ?faults:Everest_resilience.Faults.t ->
  ?policy:Everest_resilience.Policy.t ->
  ?tracer:Everest_telemetry.Trace.t ->
  ?registry:Everest_telemetry.Metrics.registry ->
  ?plan_lint:bool ->
  ?checkpoint:Checkpoint.t ->
  Everest_platform.Cluster.t ->
  Scheduler.plan ->
  stats

(** The resumable state a {!Checkpoint} digests at its boundaries. *)
type checkpoint_state

(** The digest's format: the state [execute] hands {!Checkpoint} as its
    snapshot anchor. *)
val checkpoint_state : checkpoint_state Everest_recovery.Codec.t

(** Build a fresh demonstrator, schedule with the named policy, execute.
    [exec_policy] is the recovery policy (the [~policy] argument names the
    scheduler).  When [tracer] is [`Sim] a tracer on the fresh cluster's
    simulated clock is created and its spans land in [stats.span_log].
    @raise Invalid_argument on unknown policy names. *)
val run_on_demonstrator :
  ?cloud_fpgas:int ->
  ?edges:int ->
  ?endpoints:int ->
  ?faults:Everest_resilience.Faults.t ->
  ?exec_policy:Everest_resilience.Policy.t ->
  ?tracer:[ `Noop | `Sim ] ->
  ?registry:Everest_telemetry.Metrics.registry ->
  policy:string ->
  Dag.t ->
  Scheduler.plan * stats

(** {2 Trace/stats agreement}

    The span log is an alternative account of the run; these fold it back
    into the headline numbers so tests can assert both stories match. *)

(** Task-execution attempts that were abandoned and re-executed because
    their node died or the attempt failed transiently (spans with
    [status="retried"]). *)
val trace_retries : Everest_telemetry.Trace.span list -> int

(** Total bytes carried by ["xfer:…"] spans. *)
val trace_bytes_moved : Everest_telemetry.Trace.span list -> int

(** Successful first completions (spans with [status="ok"]). *)
val trace_tasks_completed : Everest_telemetry.Trace.span list -> int
