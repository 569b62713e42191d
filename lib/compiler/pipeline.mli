(** The end-to-end compilation pipeline of Fig. 1:

    DSL workflow -> unified IR (front-end) -> canonicalized IR (middle-end
    passes) -> per-kernel variants via DSE (middle-end exploration) ->
    executable workflow DAG + tuner knowledge + emitted code (back-end).

    The produced {!compiled_app} is what the EVEREST SDK hands to the
    virtualized runtime. *)

type compiled_kernel = {
  ck_name : string;
  expr : Everest_dsl.Tensor_expr.expr;
  annots : Everest_dsl.Annot.t list;
  dse : Dse.result;
  knowledge : Everest_autotune.Knowledge.t;
  sycl : string;  (** Emitted code of the best software variant. *)
}

type compiled_app = {
  app_name : string;
  ir : Everest_ir.Ir.modul;  (** Unified, canonicalized module. *)
  kernels : compiled_kernel list;
  dag : Everest_workflow.Dag.t;
  pass_reports : Everest_ir.Pass.report list;
  violations : (string * Everest_security.Ift.flow_violation) list;
      (** Static information-flow audit results. *)
  lint : Everest_analysis.Lint.diag list;
      (** Pre-flight lint diagnostics (warnings and infos; errors abort
          the compile). *)
}

exception Compile_error of string

(** Compile a workflow graph.  Per-kernel DSE evaluates the default
    target's candidates on the default pool through [cache] (the process-wide cache when
    omitted, so warm re-compiles of the same kernels skip estimation).

    Unless [lint] is [false], a pre-flight {!Everest_analysis.Lint} run
    checks the freshly lowered module — error-severity diagnostics abort
    the compile, warnings are counted in telemetry and kept on the
    returned app.
    @raise Compile_error on invalid graphs, IR verification failures, or
    error-severity lint diagnostics. *)
val compile :
  ?cache:Estimate_cache.t ->
  ?lint:bool ->
  Everest_dsl.Dataflow.graph ->
  compiled_app

val total_variants : compiled_app -> int
val report : Format.formatter -> compiled_app -> unit
