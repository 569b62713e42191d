(** Size/deadline-triggered request coalescing.

    Compatible requests (same kernel, hence the same deployed variants)
    queue per key and leave as one batch when (a) the key reaches
    [max_batch], (b) the oldest member has waited [max_delay_s] — the
    fabric schedules a flush at that deadline — or (c) a worker goes idle
    and greedily drains the oldest pending key, so batching only delays
    requests when the shard is actually busy.

    A batch executes as one orchestrator request: the data transfer and
    FPGA pipeline fill are paid once and each extra member adds only
    [marginal_cost] of the single-request service time (the fabric's
    amortization model for sharing a configured variant). *)

type config = {
  max_batch : int;  (** Size trigger; 1 disables coalescing. *)
  max_delay_s : float;  (** Deadline trigger (oldest-member age). *)
  marginal_cost : float;
      (** Fraction of the single-request time each extra member costs,
          in [0, 1]; 1 = no batching benefit. *)
}

val default_config : config

type batch = {
  b_key : string;  (** The shared kernel. *)
  b_requests : Workload.request list;  (** Oldest first; never empty. *)
  b_formed_s : float;
}

val size : batch -> int

(** Batch service time from the measured single-request time. *)
val service_time : config -> single_s:float -> size:int -> float

type t

val create : config -> t

(** Queue one request at [now]; returns the full batch when this arrival
    hits the size trigger. *)
val add : t -> now:float -> Workload.request -> batch option

(** Batches whose oldest member has aged past the deadline. *)
val flush_due : t -> now:float -> batch list

(** Greedily form a batch from the key with the oldest member (for an
    idle worker); [None] when nothing is pending. *)
val flush_oldest : t -> now:float -> batch option

(** Requests currently pending across all keys. *)
val pending : t -> int

(** Age of the oldest pending request; 0 when empty. *)
val oldest_age : t -> now:float -> float

(** {2 Checkpoint / restore} *)

(** Per-key accumulators [(key, oldest_arrival_s, requests)] with
    requests newest first and keys in insertion order, exactly as
    stored, so a restored batcher forms identical batches. *)
val export : t -> (string * float * Workload.request list) list

val import : t -> (string * float * Workload.request list) list -> unit
