(* Recovery policies: retry budgets with exponential backoff + decorrelated
   jitter (in simulated time), plan-relative task timeouts, and speculative
   re-execution of stragglers.

   The default policy is deliberately inert beyond retries: no timeouts, no
   speculation, no heartbeat — so a zero-fault run under the default policy
   schedules exactly the same events as the pre-resilience executor. *)

module Rng = Everest_parallel.Rng

type backoff = {
  base_s : float;  (* first delay *)
  factor : float;  (* growth per retry *)
  max_s : float;  (* cap *)
}

let default_backoff = { base_s = 1e-4; factor = 2.0; max_s = 0.05 }

(* Decorrelated jitter (the AWS formula): the next delay is uniform in
   [base, prev * factor], capped.  Threading [prev] keeps consecutive delays
   from synchronizing across tasks while staying fully deterministic for a
   seeded rng. *)
let next_delay b ~rng ~prev =
  if b.base_s <= 0.0 then 0.0
  else begin
    let prev = if prev <= 0.0 then b.base_s else prev in
    let hi = Float.max b.base_s (prev *. b.factor) in
    let d = b.base_s +. (Rng.float rng *. (hi -. b.base_s)) in
    Float.min b.max_s d
  end

type timeout = {
  timeout_factor : float;  (* of the planned-node execution estimate *)
  timeout_min_s : float;
}

type speculation = {
  spec_factor : float;  (* of the planned-node execution estimate *)
  spec_min_s : float;
  max_speculative : int;  (* backup launches allowed across the whole run *)
}

type t = {
  max_retries : int;  (* re-launches per task, all failure kinds combined *)
  backoff : backoff;
  timeout : timeout option;
  speculation : speculation option;
  heartbeat_s : float option;  (* health-monitor interval; None = disabled *)
}

let default =
  { max_retries = 8; backoff = default_backoff; timeout = None;
    speculation = None; heartbeat_s = None }

let chaos =
  { max_retries = 8;
    backoff = default_backoff;
    timeout = Some { timeout_factor = 8.0; timeout_min_s = 1e-3 };
    speculation = Some { spec_factor = 3.0; spec_min_s = 1e-3; max_speculative = 16 };
    heartbeat_s = Some 0.005 }
