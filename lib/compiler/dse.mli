(** Design-space exploration over the variant space.

    Strategies trade exploration cost (how many cost-model/HLS evaluations
    run) against result quality.  Candidate evaluation goes through a
    domain pool and the shared estimation cache; omit [pool]/[cache] for
    the process-wide defaults.  [explored] counts evaluations requested —
    cache hits make them cheap without changing the count. *)

type result = {
  explored : int;  (** Candidate evaluations performed. *)
  variants : Variants.variant list;  (** Pareto survivors. *)
  best_time : Variants.variant option;
}

(** [strategy] labels the [dse_*] telemetry metrics the summary emits. *)
val summarize : ?strategy:string -> int -> Variants.variant list -> result

(** Evaluate the default target's whole space (the oracle). *)
val exhaustive :
  ?pool:Everest_parallel.Pool.t ->
  ?cache:Estimate_cache.t ->
  ?annots:Everest_dsl.Annot.t list ->
  Everest_dsl.Tensor_expr.expr ->
  result

(** Deterministic random subset of [budget] candidates of the default
    target's space. *)
val sampled :
  ?pool:Everest_parallel.Pool.t ->
  ?cache:Estimate_cache.t ->
  budget:int ->
  Everest_dsl.Tensor_expr.expr ->
  result

(** Coordinate descent over threads, tile, threads again, layout, then the
    hardware candidates of the default target — far fewer evaluations than
    exhaustive. *)
val greedy :
  ?pool:Everest_parallel.Pool.t ->
  ?cache:Estimate_cache.t ->
  Everest_dsl.Tensor_expr.expr ->
  result

(** Achieved-to-optimal best-time ratio versus an oracle result (1.0 =
    optimal). *)
val quality : result -> result -> float
