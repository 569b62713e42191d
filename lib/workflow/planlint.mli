(** Planlint: static sanitization of execution plans before they run.

    A plan is a [(Dag.t, Scheduler.plan, Cluster.t)] triple; by the time it
    reaches the executor it may have been repaired ([Scheduler.heft_delta]),
    built over an edited copy of a DAG or hand-assembled, and a defect is
    otherwise only discovered when the run crashes or silently degrades.
    The DAG itself needs no checking here: {!Dag.create} validated it once
    (ids equal indexes, inputs precede their task, no input repeats), so
    index order is a topological order and the analyzer walks the tasks
    once, in that order.  Planlint proves the plan safe in milliseconds,
    reusing the {!Everest_analysis.Lint} diagnostic engine (severities,
    rendering) with a plan-level EV1xx code block:

    - {b happens-before} (EV110–EV112): the assignments cover the task
      array, and every consumer of a reference DAG is ordered after its
      producers by the plan — its data edges (what the executor enforces,
      including cross-node transfer edges) plus the per-node serialization
      of the plan's static timeline — proved through a reachability index
      (chain decomposition in index order, O(n·chains) build, O(1)
      queries), so [heft_delta] cone repairs are verified rather than
      trusted;
    - {b capability/placement} (EV120–EV123, EV130–EV131): FPGA tasks on
      FPGA-less nodes, pinned sources placed off-pin, references to
      unknown/excluded nodes, per-node FPGA role-slot oversubscription and
      reconfiguration thrash read off the plan's static timeline;
    - {b SLO feasibility} (EV140): critical-path lower bound of the static
      timeline vs declared {!Everest_observe.Slo} latency deadlines.

    Diagnostics are deterministic (task order within each rule, rules in
    code order) and capped per code so a corrupt million-task plan cannot
    flood the report.  This analyzer is the plan-level counterpart of
    [Everest_analysis.Lint]; it lives in [everest_workflow] because it
    consumes [Dag]/[Scheduler]/[Cluster] and gates [Executor] (the
    analysis library sits below the platform layer). *)

(** Raised by {!gate} (and the executor's pre-run gate) when a plan has
    error-severity diagnostics. *)
exception Plan_invalid of {
  plan : string;  (** ["<dag>/<policy>"] of the offending plan. *)
  diags : Everest_analysis.Lint.diag list;  (** The full diagnostic list. *)
}

(** The EV1xx catalog: code, default severity, one-line doc. *)
val codes : (string * Everest_analysis.Lint.severity * string) list

(** {2 Happens-before reachability index}

    Chains are the plan's per-node serialization sequences in task-index
    order (a topological order of every {!Dag.t}); together with the DAG's
    data edges they form the plan-order graph.  The index stores, per
    vertex and chain, the earliest chain position reachable from the
    vertex — O(tasks·chains) ints, built in one pass in descending index
    order, answering [reaches] in O(1). *)
module Reach : sig
  type t

  (** Build the index for [plan] over [dag]'s edges (default [plan.dag]).
      @raise Invalid_argument when the plan's assignments do not cover
      [dag]'s tasks. *)
  val build : ?dag:Dag.t -> Scheduler.plan -> t

  val tasks : t -> int

  (** Number of chains (distinct assigned nodes). *)
  val chains : t -> int

  (** [reaches idx u v] is true iff the plan orders task [u] (strictly)
      before task [v], directly or transitively. *)
  val reaches : t -> int -> int -> bool
end

type summary = {
  pl_diags : Everest_analysis.Lint.diag list;
  pl_tasks : int;
  pl_edges : int;  (** Deduplicated data edges of the plan's DAG. *)
  pl_chains : int;
  pl_cp_lower_s : float;
      (** Critical-path lower bound of the plan's static timeline
          (transfer-aware, contention-free); 0 when the assignments do not
          cover the task array (EV112).
          Each task costs {!Scheduler.exec_estimate} on its node, or
          {!Scheduler.cpu_fallback} for an FPGA implementation on a node
          without an FPGA, as the executor runs it. *)
}

(** Run every EV1xx rule in one walk over the tasks in index order.

    [dag] is the reference DAG whose precedence edges the plan must
    enforce; it defaults to [plan.dag].  Pass the original DAG to verify a
    plan built over an edited copy of it (a repair, a rewiring) against
    the original dependences (a dropped edge then raises EV110/EV111).
    Only a DAG physically different from [plan.dag] is checked: the
    plan's own data edges order it by construction.  [excluded]
    names nodes the plan must not use (dead or administratively drained);
    pins onto excluded nodes demote EV120 to a warning (the repair had no
    choice).  [slos] / [deadline_s] declare latency deadlines for the
    EV140 feasibility check.  Kept for the plan-lint tests and their
    reference property: [?excluded] and [?slos], which lint repairs
    around dead nodes and SLO deadlines; no program passes them yet. *)
val analyze :
  ?dag:Dag.t ->
  ?excluded:string list ->
  ?slos:Everest_observe.Slo.spec list ->
  ?deadline_s:float ->
  Everest_platform.Cluster.t ->
  Scheduler.plan ->
  summary

(** [analyze] returning only the diagnostics. *)
val check :
  ?dag:Dag.t ->
  ?deadline_s:float ->
  Everest_platform.Cluster.t ->
  Scheduler.plan ->
  Everest_analysis.Lint.diag list

(** Pre-run gate: {!check} with its defaults, then raise on errors
    (warnings pass).
    @raise Plan_invalid when any diagnostic has error severity. *)
val gate : Everest_platform.Cluster.t -> Scheduler.plan -> unit
