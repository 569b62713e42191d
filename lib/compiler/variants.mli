(** Generation of hardware and software variants (Fig. 1, middle-end).

    Every kernel expands into implementation candidates with estimated
    metrics; the DSE prunes them; survivors become the operating points the
    runtime selects among.

    Candidate evaluation runs through an {!Everest_parallel.Pool} (one task
    per candidate, deterministic output ordering) and a shared
    {!Estimate_cache}, so repeated explorations reuse earlier estimations.
    When [pool]/[cache] are omitted the process-wide defaults are used. *)

open Everest_platform

type target = {
  cpu : Spec.cpu;
  fpga : Spec.fpga option;
  sw_tiles : int list;
  sw_threads : int list;
  hw_unrolls : int list;
}

(** POWER9 + bus FPGA with a moderate knob grid. *)
val default_target : target

type impl =
  | Sw of Cost_model.sw_params
  | Hw of { unroll : int; design : Everest_hls.Hls.design }

type variant = {
  vname : string;
  impl : impl;
  time_s : float;
  energy_j : float;
  area_luts : int;  (** 0 for software variants. *)
}

val in_out_bytes : Everest_dsl.Tensor_expr.expr -> int * int

(** The software knob grid of a target for an expression (tiles only for
    contraction kernels). *)
val sw_param_space :
  target -> Everest_dsl.Tensor_expr.expr -> Cost_model.sw_params list

(** Evaluate one software candidate through the estimation cache. *)
val eval_sw :
  ?cache:Estimate_cache.t ->
  target ->
  Everest_dsl.Tensor_expr.expr ->
  Cost_model.sw_params ->
  variant

val sw_variants :
  ?pool:Everest_parallel.Pool.t ->
  ?cache:Estimate_cache.t ->
  target ->
  Everest_dsl.Tensor_expr.expr ->
  variant list

(** Hardware candidates that fit the target FPGA; [dift] instruments every
    design with taint tracking.  Each candidate's DFG construction +
    schedule + bind + estimate runs as one pool task. *)
val hw_variants :
  ?pool:Everest_parallel.Pool.t ->
  ?cache:Estimate_cache.t ->
  target ->
  ?dift:bool ->
  Everest_dsl.Tensor_expr.expr ->
  variant list

(** Full variant space.  Kernels annotated Confidential or higher get
    DIFT-instrumented hardware variants. *)
val generate :
  ?pool:Everest_parallel.Pool.t ->
  ?cache:Estimate_cache.t ->
  ?target:target ->
  ?annots:Everest_dsl.Annot.t list ->
  Everest_dsl.Tensor_expr.expr ->
  variant list

(** O(n log n) Pareto filter (lexicographic sort + staircase sweep on
    energy/area).  Survivors are returned in input order, identical to
    {!pareto_naive}. *)
val pareto : variant list -> variant list

(** O(n²) reference implementation.  Kept for tests: the oracle the
    compiler and parallel DSE properties compare {!pareto} against. *)
val pareto_naive : variant list -> variant list

(** Bridge to the runtime: variants as mARGOt operating points. *)
val to_knowledge : kernel:string -> variant list -> Everest_autotune.Knowledge.t

(** Bridge to the workflow layer: a variant as a task implementation. *)
val to_dag_impl :
  Everest_dsl.Tensor_expr.expr -> variant -> Everest_workflow.Dag.impl

val pp : Format.formatter -> variant -> unit
