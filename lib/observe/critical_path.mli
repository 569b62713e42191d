(** The critical path of a run with self-time vs. wait-time attribution.

    The path is the backward chain from the latest-finishing task, always
    stepping to the latest-finishing dependency; per step, the segment
    since the previous finish splits into {e self} time (bounded by the
    measured work) and {e wait} time (transfers, retries, queueing).
    {!Analyzer.analyze} extracts it from a span log.

    Invariant (pinned by {!check} and the tests):
    [work_s <= duration_s <= makespan_s], with [duration_s = makespan_s]
    whenever the chain anchors at a time-zero root. *)

type step = {
  st_name : string;
  st_node : string;
  st_start_s : float;  (** The task's first attempt start. *)
  st_finish_s : float;
  st_self_s : float;  (** Executing, within this step's path segment. *)
  st_wait_s : float;  (** The rest of the segment. *)
}

type t = {
  steps : step list;  (** In execution order. *)
  duration_s : float;  (** Last finish - first start along the path. *)
  work_s : float;  (** Sum of per-step self time. *)
  wait_s : float;  (** Sum of per-step wait time. *)
  makespan_s : float;  (** Max finish over all tasks. *)
  total_work_s : float;  (** Sum of work over all tasks. *)
}

(** Path time attributed per node, (self, wait) pairs, largest share
    first. *)
val by_node : t -> (string * (float * float)) list

(** The top-[k] path steps by share of the critical path (self + wait). *)
val bottlenecks : ?k:int -> t -> step list

(** The extraction invariant, to an absolute 1e-9 s. *)
val check : t -> bool

val step_to_json : step -> Json.t
val to_json : t -> Json.t
