(** Distributed data allocation (§IV: "data representations and distributed
    allocation"; §II: "move the computation closer to the data").

    For every task output of a scheduled plan, decide whether consumers
    pull from the producer, read from a staged hub copy, or receive
    parallel replicas — by comparing modeled transfer costs on the actual
    cluster links. *)

open Everest_platform

type decision =
  | Keep_at_producer
  | Hub of string  (** Stage one copy at this node. *)
  | Replicate_to_consumers  (** Parallel pushes to every consumer. *)

type allocation = {
  task_id : int;
  bytes : int;
  producer : string;
  consumers : string list;
  decision : decision;
  pull_cost_s : float;  (** Cost of the naive pull strategy. *)
  chosen_cost_s : float;
}

(** Cost of consumers pulling straight from the producer. *)
val pull_cost :
  Cluster.t -> producer:string -> consumers:string list -> bytes:int -> float

(** Cost of staging one copy at the hub, consumers pulling from there. *)
val hub_cost :
  Cluster.t -> producer:string -> consumers:string list -> bytes:int -> string ->
  float

(** Best strategy with its naive and chosen costs. *)
val decide :
  Cluster.t -> producer:string -> consumers:string list -> bytes:int ->
  decision * float * float

(** Allocate every consumed task output of a plan. *)
val optimize : Cluster.t -> Scheduler.plan -> allocation list

val total_pull : allocation list -> float
val total_chosen : allocation list -> float

(** Relative modeled saving over naive pulls, in [0, 1). *)
val saving : allocation list -> float
