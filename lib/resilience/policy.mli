(** Recovery policies: retry budgets with exponential backoff and
    decorrelated jitter (simulated time), plan-relative task timeouts, and
    speculative re-execution of stragglers.

    {!default} is inert beyond retries — no timeouts, speculation or
    heartbeat — so zero-fault runs under it are byte-identical to the
    pre-resilience executor. *)

type backoff = {
  base_s : float;  (** First delay; 0 disables backoff entirely. *)
  factor : float;  (** Growth per retry. *)
  max_s : float;  (** Cap. *)
}

val default_backoff : backoff

(** Decorrelated jitter: next delay uniform in [base, prev * factor],
    capped at [max_s].  Pass the previous delay (0 initially). *)
val next_delay :
  backoff -> rng:Everest_parallel.Rng.t -> prev:float -> float

type timeout = {
  timeout_factor : float;
      (** Deadline as a multiple of the planned-node execution estimate —
          the plan is the SLA, whatever node the attempt landed on. *)
  timeout_min_s : float;
}

type speculation = {
  spec_factor : float;  (** Backup launch point, × the planned estimate. *)
  spec_min_s : float;
  max_speculative : int;  (** Backup launches allowed per run. *)
}

type t = {
  max_retries : int;  (** Re-launches per task, all failure kinds combined. *)
  backoff : backoff;
  timeout : timeout option;
  speculation : speculation option;
  heartbeat_s : float option;
      (** Health-monitor interval: node death is detected within this bound
          instead of only at task completion.  [None] disables it. *)
}

val default : t

(** Everything on: timeouts, speculation and a heartbeat — the policy the
    chaos CLI and bench e14 run under. *)
val chaos : t
