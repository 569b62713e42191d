(** One serving shard: a private single-node cluster (POWER9 with bus
    FPGAs) running its own {!Everest_runtime.Orchestrator}, fronted by a
    batcher, a run queue of formed batches and an auto-allocated worker
    pool.  The orchestrator's simulated clock is the shard's *service
    oracle* — each batch executes there to measure its service time —
    while queueing, concurrency and arrivals live on the fabric clock.

    A shard is [draining] while any deployed hardware variant's circuit
    breaker is open: the balancer routes new requests to siblings until a
    half-open probe on the shard's orchestrator recovers the variant. *)

type t = {
  s_id : int;
  s_name : string;
  s_orch : Everest_runtime.Orchestrator.t;
  s_batcher : Batcher.t;
  s_scaler : Autoscale.t;
  s_queue : Batcher.batch Queue.t;  (** Formed batches awaiting a worker. *)
  mutable s_busy : int;  (** Workers currently executing a batch. *)
  mutable s_inflight : int;  (** Requests inside executing batches. *)
  mutable s_served : int;
  mutable s_failed : int;
  mutable s_batches : int;  (** Batches executed. *)
  mutable s_batched_requests : int;  (** Requests that shared a batch (size > 1). *)
  mutable s_peak_workers : int;
}

(** Build the shard's cluster and orchestrator and deploy kernels through
    [deploy] (a per-shard registry keeps orchestrator metrics from
    colliding across shards). *)
val create :
  id:int ->
  batcher:Batcher.config ->
  autoscale:Autoscale.config ->
  deploy:(Everest_runtime.Orchestrator.t -> unit) ->
  unit ->
  t

(** {2 Checkpoint / restore} *)

(** The shard's counters, controller, batcher accumulators, run queue
    (oldest first) and orchestrator state. *)
type persisted = {
  sp_busy : int;
  sp_inflight : int;
  sp_served : int;
  sp_failed : int;
  sp_batches : int;
  sp_batched_requests : int;
  sp_peak_workers : int;
  sp_scaler : Autoscale.persisted;
  sp_batcher : (string * float * Workload.request list) list;
  sp_queue : Batcher.batch list;
  sp_orch : Everest_runtime.Orchestrator.persisted_state;
}

val export : t -> persisted

(** Restore into a freshly created shard with the same deployment.
    @raise Invalid_argument when the orchestrator state names a device,
    kernel or variant the deployment lacks. *)
val import : t -> persisted -> unit

(** Requests queued (batcher + run queue), excluding in-flight. *)
val depth : t -> int

(** Queued + in-flight requests — the balancer's load signal. *)
val outstanding : t -> int

(** Age of the oldest queued request (batcher or run queue). *)
val backlog_age : t -> now:float -> float

(** Any deployed hardware variant's breaker currently open? *)
val draining : t -> bool
