(** Workflow schedulers: assignment of tasks to nodes and implementation
    choice.  Baselines (round-robin, min-load) plus HEFT and the
    locality-aware HEFT that models HyperLoom's data-aware placement. *)

open Everest_platform

type assignment = { node : string; impl : Dag.impl }

type plan = {
  dag : Dag.t;
  assignments : assignment array;  (** Indexed by task id. *)
  policy : string;
}

(** Estimated execution time of [impl] on a node, ignoring queuing;
    [infinity] for FPGA implementations on FPGA-less nodes. *)
val exec_estimate : Node.t -> Dag.impl -> float

(** [cpu_fallback estimate ~in_bytes ~out_bytes] is the CPU implementation
    an FPGA kernel degrades to on a node without an FPGA: [estimate]'s
    cycle count times 10 as flops, on one thread, moving
    [in_bytes + out_bytes]. *)
val cpu_fallback :
  Everest_hls.Estimate.t -> in_bytes:int -> out_bytes:int -> Dag.impl

(** Spread tasks across eligible nodes in turn. *)
val round_robin : Cluster.t -> Dag.t -> plan

(** Greedy least-accumulated-work placement. *)
val min_load : Cluster.t -> Dag.t -> plan

(** Heterogeneous earliest-finish-time list scheduling.  With
    [locality_aware], communication costs use the actual cluster links and
    current data placement instead of an average bandwidth.  [exclude]
    removes nodes (by name) from consideration, e.g. after node death.

    Internally the scheduler memoizes [exec_estimate] per
    (implementation × node) and runs array-based rank ordering and EFT
    search; the plan is bit-identical to [heft_reference].
    @raise Invalid_argument when [exclude] covers every node. *)
val heft : ?locality_aware:bool -> ?exclude:string list -> Cluster.t -> Dag.t -> plan

(** [heft ~locality_aware:true]. *)
val locality : Cluster.t -> Dag.t -> plan

(** [heft_delta c plan ~dead] repairs [plan] after the nodes in [dead]
    fail.  Every task outside the downward cone of the dead nodes (the
    tasks assigned to them and their transitive consumers) keeps its
    assignment.  The cone is re-placed by the loop [heft ~exclude:dead]
    runs, with the same fallback: a task with no feasible node keeps its
    surviving pin, else takes the first surviving node, with its first
    implementation.  Decision time scales with the cone, not the DAG.
    Communication is costed as [heft ~locality_aware] when [plan.policy]
    is ["heft-locality"]; the result's policy is [plan.policy ^ "+delta"].
    @raise Invalid_argument when every node is dead. *)
val heft_delta : Cluster.t -> plan -> dead:string list -> plan

(** The historical (pre-memoization) HEFT: per-task [Dag.consumers_naive]
    rebuilds and per-candidate [exec_estimate] recomputation — Θ(n²·deg).
    Kept as the oracle for plan-equivalence properties and as the baseline
    benchmark e17 measures speedup against.  Produces bit-identical plans
    to [heft]. *)
val heft_reference : ?locality_aware:bool -> Cluster.t -> Dag.t -> plan

(** Look up a policy by name: "round-robin", "min-load", "heft",
    "heft-locality"/"locality". *)
val by_name : string -> (Cluster.t -> Dag.t -> plan) option
