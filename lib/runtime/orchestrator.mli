(** The adaptive orchestrator: closes the loop between the mARGOt tuner,
    the virtualized execution layers and the simulated platform (Fig. 2,
    item 2: "dynamic hardware-software adaptation strategy").

    A kernel is deployed with its compile-time variants; requests arrive in
    closed loop; per request the policy picks the variant, the runtime
    executes it (guest compute for software, vFPGA launches for hardware)
    and the measured latency feeds back into the tuner. *)

open Everest_platform
open Everest_autotune

type variant_impl =
  | Sw of { flops : float; bytes : float; threads : int }
  | Hw of {
      bitstream : string;
      estimate : Everest_hls.Estimate.t;
      in_bytes : int;
      out_bytes : int;
    }

(** A kernel's request-loop counters and histograms, resolved in the
    orchestrator's registry at {!deploy}. *)
type meters

type deployed_kernel = {
  kname : string;
  impls : (string * variant_impl) list;
  tuner : Tuner.t;
  breakers : (string * Everest_resilience.Breaker.t) list;
      (** One circuit breaker per hardware variant: repeated failures trip
          it and requests degrade to software until a half-open probe
          succeeds. *)
  meters : meters;
  mutable slos : Everest_observe.Slo.monitor list;
      (** The monitors the last {!serve} fed. *)
}

type t = {
  cluster : Cluster.t;
  host : Node.t;
  vm : Vm.t;
  vfpga_mgr : Vfpga.t;
  vctx : Vfpga.vctx option;
  tracer : Everest_telemetry.Trace.t;
      (** Request-loop spans in simulated time (no-op by default). *)
  registry : Everest_telemetry.Metrics.registry;
  mutable kernels : deployed_kernel list;
}

(** Stand up the runtime on a cluster node: spawns the application VM and,
    when the host has FPGAs, a vFPGA context.  Pass [tracer] (usually
    {!sim_tracer} on the same cluster) to record per-request spans;
    [registry] (default {!Everest_telemetry.Metrics.default}) receives the
    [orchestrator_*] and [tuner_*] metrics. *)
val create :
  ?tracer:Everest_telemetry.Trace.t ->
  ?registry:Everest_telemetry.Metrics.registry ->
  Cluster.t ->
  host_name:string ->
  t

(** A tracer driven by the cluster's simulated clock. *)
val sim_tracer : Cluster.t -> Everest_telemetry.Trace.t

(** Snapshot the runtime layers — tuner selections and switches, breaker
    states, each kernel's SLO verdicts, vFPGA activity and the cluster —
    into gauges of the orchestrator's registry.  The reader of those
    gauges calls this; {!serve} never does.  Reading a breaker's state
    promotes an expired open breaker to half-open, as the next {!serve}
    would. *)
val publish_metrics : t -> unit

(** Deploy a kernel with its variants; hardware bitstreams are preloaded
    (deployment-time configuration) and every hardware variant gets a
    circuit breaker ([breaker] overrides the default configuration).  The
    kernel's request counters and latency histogram are registered here. *)
val deploy :
  ?breaker:Everest_resilience.Breaker.config ->
  t ->
  kname:string ->
  impls:(string * variant_impl) list ->
  knowledge:Knowledge.t ->
  goal:Goal.t ->
  deployed_kernel

val find_kernel : t -> string -> deployed_kernel

(** {2 Checkpoint / restore} *)

(** The behavioural cross-request state: simulated clock, FPGA slot
    contents (whether the next invocation pays reconfiguration), and per
    deployed kernel the tuner knowledge plus breaker states.  Telemetry
    counters are deliberately excluded — they never feed back into
    scheduling. *)
type persisted_state = {
  ps_clock : float;
  ps_fpgas : (int * int * (int * string) list) list;
      (** dev_id, next_slot, slot -> bitstream *)
  ps_kernels :
    (string * Everest_autotune.Tuner.persisted
    * (string * Everest_resilience.Breaker.persisted) list)
    list;
}

(** Breakers are exported in the state a query at the current simulated
    time sees: an Open breaker whose cooldown has run out is promoted to
    Half_open first. *)
val export_state : t -> persisted_state

(** Restore into a freshly created-and-deployed orchestrator: kernels and
    variants must already exist (deployment is code, not state).
    @raise Invalid_argument on unknown devices/kernels/variants. *)
val restore_state : t -> persisted_state -> unit

(** Breaker state of a hardware variant at the current simulated time;
    [None] for software variants. *)
val breaker_state :
  t -> deployed_kernel -> variant:string -> Everest_resilience.Breaker.state option

type policy = Adaptive | Fixed of string | Random of int

type request_log = {
  req : int;
  requested : string;  (** What the policy picked. *)
  variant : string;  (** What actually served the request. *)
  latency_s : float;  (** Across all attempts, including backoff. *)
  attempts : int;
  degraded : bool;  (** A breaker diverted a hardware pick to software. *)
  ok : bool;
  t_done : float;  (** Simulated completion time, for SLO windows. *)
}

(** Serve [n] closed-loop requests.  [slowdown req variant] injects
    time-varying contention; [features req] supplies per-request data
    features to the tuner.

    [fail ~req ~variant ~attempt] injects a deterministic per-attempt
    failure verdict; failures feed the variant's circuit breaker and are
    retried with backoff up to [max_attempts] (default 3).  While a
    hardware variant's breaker is open, requests for it are served by the
    first software variant (graceful degradation), recorded per request in
    [degraded] and in the [orchestrator_degraded_total] counter.

    [slos] are online {!Everest_observe.Slo} monitors fed as each request
    completes (simulated completion time, final latency, outcome); the
    kernel keeps them, and {!publish_metrics} publishes their verdicts as
    [orchestrator_slo_*] gauges labelled by monitor name.

    Serving publishes no snapshot: it bumps the counters resolved at
    {!deploy}, observes [tuner_observed_time_s] per variant on Adaptive
    successes, and leaves the gauges to {!publish_metrics}. *)
val serve :
  t ->
  kernel:string ->
  n:int ->
  policy:policy ->
  ?slowdown:(int -> string -> float) ->
  ?features:(int -> (string * float) list) ->
  ?fail:(req:int -> variant:string -> attempt:int -> bool) ->
  ?max_attempts:int ->
  ?slos:Everest_observe.Slo.monitor list ->
  unit ->
  request_log list

val total_latency : request_log list -> float
val mean_latency : request_log list -> float

(** Fraction of requests that ultimately succeeded (1.0 on an empty log). *)
val availability : request_log list -> float

(** Requests that were served degraded. *)
val degraded_requests : request_log list -> int

val variant_histogram : request_log list -> (string * int) list

(** The request log as batch SLO outcomes, for
    {!Everest_observe.Slo.evaluate_all} over a finished run. *)
val slo_outcomes : request_log list -> Everest_observe.Slo.outcome list
