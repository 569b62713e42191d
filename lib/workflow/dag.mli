(** Workflow task graphs (the HyperLoom execution plan).

    A task carries one or more implementations (the compiler's variants):
    software on some number of threads, or a synthesized FPGA kernel.  The
    scheduler picks a node and an implementation per task; the executor
    replays the plan on the simulated platform. *)

type impl =
  | Cpu of { flops : float; bytes : float; threads : int }
  | Fpga of {
      bitstream : string;
      estimate : Everest_hls.Estimate.t;
      in_bytes : int;
      out_bytes : int;
    }

val impl_name : impl -> string

type task = {
  id : int;
  name : string;
  impls : impl list;  (** Non-empty. *)
  inputs : int list;  (** Producer task ids (must precede this task). *)
  out_bytes : int;
  pinned : string option;  (** Sources pinned to a node (data origin). *)
}

(** A validated DAG.  Only {!create} and the generators below build one,
    and each checks it once: task [i] has id [i], every input precedes its
    task, and no task lists an input twice, so ascending index order is a
    topological order.  The record is private: code outside this module
    reads it but can neither build nor functionally update one, and the
    task array is never written after construction. *)
type t = private {
  dag_name : string;
  tasks : task array;  (** Task [i] at index [i]. *)
  rev_adj : int array array;
      (** Consumer ids of each task, ascending (the reverse adjacency),
          built with the DAG; {!consumers} and {!iter_consumers} read it. *)
}

val task :
  ?pinned:string option ->
  ?impls:impl list ->
  id:int ->
  name:string ->
  inputs:int list ->
  out_bytes:int ->
  unit ->
  task

(** [create name tasks] validates [tasks] and builds their reverse
    adjacency.
    @raise Invalid_argument unless ids are consecutive from 0, every input
    precedes its task, and no task lists an input twice (duplicates would
    deadlock the executor: it counts raw inputs but producers signal
    deduplicated consumers).  Messages name the dag, the offending task id
    and name, and the bad input id. *)
val create : string -> task list -> t

val size : t -> int
val find : t -> int -> task

(** Consumer task ids of [id] in ascending order, O(out-degree) from the
    reverse adjacency. *)
val consumers : t -> int -> int list

val iter_consumers : t -> int -> (int -> unit) -> unit

(** The historical O(n·deg) scan — the reference [consumers] is
    property-tested against, and the quadratic baseline of bench e17. *)
val consumers_naive : t -> int -> int list

(** {2 Generators} *)

(** Layered random DAG (deterministic in [seed]): [layers] layers of [width]
    tasks, each consuming one or two tasks of the previous layer. *)
val layered :
  ?seed:int -> layers:int -> width:int -> flops:float -> bytes:float -> unit -> t

(** One source fanning out to [width] workers joined by a reducer — the
    shape of ensemble weather processing.  The DAG is named ["fork-join"]. *)
val fork_join :
  width:int ->
  worker_flops:float ->
  worker_bytes:float ->
  chunk_bytes:int ->
  unit ->
  t

(** [members] independent [stages]-deep chains fed by one source and joined
    by a reducer — the Estee "ensemble of simulations" family.  Per-member
    work is jittered by up to 2x, deterministic in [seed], so members
    straggle like real ensembles. *)
val ensemble :
  ?seed:int ->
  members:int ->
  stages:int ->
  stage_flops:float ->
  stage_bytes:float ->
  unit ->
  t
