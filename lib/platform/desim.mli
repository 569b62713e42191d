(** Discrete-event simulation engine.

    Event-scheduling style: callbacks queue at absolute times in a binary
    min-heap; FIFO resources model contention (CPU cores, FPGA role slots).
    All platform and runtime behaviour in EVEREST's simulated target system
    runs on this engine. *)

type t

val create : unit -> t

(** Current simulated time in seconds. *)
val now : t -> float

(** [warp sim t] jumps the clock forward to absolute time [t] without
    executing anything — used by recovery to rebuild a simulation at a
    snapshot's timestamp before re-inserting its pending events.
    @raise Invalid_argument for times in the past. *)
val warp : t -> float -> unit

(** [schedule sim delay f] runs [f] at [now + delay].
    @raise Invalid_argument on negative delays. *)
val schedule : t -> float -> (unit -> unit) -> unit

(** A scheduled event that can still be revoked.  Handles exist so rescue
    timers (timeout/speculation watchdogs armed per task) can be cancelled
    when the task completes first, instead of sitting in the heap as dead
    closures until their fire time — at 10⁶ tasks that retention is O(n). *)
type handle

(** Like [schedule], returning a cancellation handle. *)
val schedule_cancellable : t -> float -> (unit -> unit) -> handle

(** Revoke the event: its closure is released immediately, the pop loop
    skips it without running it or advancing the clock, and when cancelled
    events outnumber live ones the heap is compacted in place.  No-op once
    the event has fired or was already cancelled. *)
val cancel : t -> handle -> unit

(** [at sim time f] runs [f] at the absolute [time].
    @raise Invalid_argument for times in the past. *)
val at : t -> float -> (unit -> unit) -> unit

(** Run until the queue drains; ties execute in insertion order. *)
val run : t -> unit

(** Number of events executed so far. *)
val executed : t -> int

(** Live (non-cancelled) events still queued. *)
val pending : t -> int

(** Snapshot engine counters (events executed/pending, simulated now) into
    telemetry gauges. *)
val publish : ?registry:Everest_telemetry.Metrics.registry -> t -> unit

(** {2 FIFO resources} *)

(** Contention state is internal; read it through the accessors below so the
    accounting representation can evolve. *)
type resource

(** [resource name capacity] models [capacity] interchangeable units. *)
val resource : string -> int -> resource

(** [acquire sim r k] runs [k] as soon as a unit is free (immediately when
    available, else FIFO). *)
val acquire : t -> resource -> (unit -> unit) -> unit

(** Release one unit; hands it directly to the next waiter if any.
    @raise Invalid_argument when nothing is held. *)
val release : t -> resource -> unit

(** Units currently held. *)
val in_use : resource -> int

val queue_length : resource -> int

(** {2 Contention statistics} *)

(** Summed simulated queue time. *)
val total_wait_s : resource -> float

(** Mean queue time over queued-and-granted acquisitions. *)
val mean_wait_s : resource -> float

(** Snapshot one resource's contention state into telemetry gauges labeled
    [resource=<name>]. *)
val publish_resource :
  ?registry:Everest_telemetry.Metrics.registry -> resource -> unit
