(** The EVEREST System Development Kit facade.

    One entry point for the full flow the paper describes: describe the
    application as an annotated workflow (§III-A), compile it into hardware
    and software variants (§III-B), deploy it on the simulated target
    system (§V) and run it under the virtualized adaptive runtime (§IV). *)

(** Convenience aliases to the subsystem libraries. *)
module Dsl = Everest_dsl

module Ir = Everest_ir
module Compiler = Everest_compiler
module Platform = Everest_platform
module Workflow = Everest_workflow
module Runtime = Everest_runtime
module Autotune = Everest_autotune

type app = Compiler.Pipeline.compiled_app

(** {2 Describe} *)

(** Start a new workflow graph. *)
val workflow : string -> Dsl.Dataflow.graph

(** {2 Compile} *)

(** Front-end + middle-end + back-end; see {!Everest_compiler.Pipeline}.
    @raise Everest_compiler.Pipeline.Compile_error on invalid inputs. *)
val compile : Dsl.Dataflow.graph -> app

(** {2 Deploy and run} *)

type run_stats = {
  makespan_s : float;
  energy_j : float;
  bytes_moved : int;
  policy : string;
}

(** Execute the compiled workflow on a fresh EVEREST demonstrator (2
    edge nodes, 4 endpoints).  [faults] injects a deterministic fault plan
    and [exec_policy] sets the recovery policy (defaults: no faults,
    {!Everest_resilience.Policy.default}).
    @raise Everest_workflow.Executor.Execution_failed when recovery is
    exhausted; the exception carries the partial stats. *)
val run :
  ?policy:string -> ?cloud_fpgas:int ->
  ?faults:Everest_resilience.Faults.t ->
  ?exec_policy:Everest_resilience.Policy.t -> app ->
  run_stats

(** Run the same application under each scheduling policy: round-robin,
    min-load, heft and heft-locality, in that order. *)
val compare_policies : app -> (string * run_stats) list

(** {2 Adaptive serving (the Fig. 2 loop)} *)

type served = {
  kernel : string;
  requests : int;
  mean_latency_s : float;
  variant_histogram : (string * int) list;
  switches : int;
  span_log : Everest_telemetry.Trace.span list;
      (** Per-request orchestrator spans in simulated time when
          [~telemetry:true] was passed to {!serve}; empty otherwise. *)
}

(** Serve [n] closed-loop requests of one compiled kernel through the
    virtualized runtime with mARGOt selection.  [telemetry] records per-request spans into
    [span_log] (metrics always accumulate in
    {!Everest_telemetry.Metrics.default}).  Kept for PAPER.md §1's autotune
    row: [?goal], which the tests set to an energy goal (E2's FPGA case).
    @raise Invalid_argument on unknown kernels. *)
val serve :
  ?n:int ->
  ?goal:Autotune.Goal.t ->
  ?telemetry:bool ->
  app ->
  kernel:string ->
  served

val pp_run : Format.formatter -> run_stats -> unit
val pp_served : Format.formatter -> served -> unit
