(* The EVEREST System Development Kit facade.

   One entry point for the full flow the paper describes: describe the
   application as an annotated workflow (§III-A), compile it into hardware
   and software variants (§III-B), deploy it on the (simulated) target
   system (§V) and run it under the virtualized adaptive runtime (§IV).

   The heavy lifting lives in the per-subsystem libraries; this module
   wires them together and is what the examples and the CLI use. *)

module Dsl = Everest_dsl
module Ir = Everest_ir
module Compiler = Everest_compiler
module Platform = Everest_platform
module Workflow = Everest_workflow
module Runtime = Everest_runtime
module Autotune = Everest_autotune

type app = Compiler.Pipeline.compiled_app

(* ---- describe -------------------------------------------------------------------- *)

let workflow name = Dsl.Dataflow.create name

(* ---- compile --------------------------------------------------------------------- *)

let compile (g : Dsl.Dataflow.graph) : app = Compiler.Pipeline.compile g

(* ---- deploy & run on the distributed platform ------------------------------------- *)

type run_stats = {
  makespan_s : float;
  energy_j : float;
  bytes_moved : int;
  policy : string;
}

let run ?(policy = "heft-locality") ?(cloud_fpgas = 4) ?faults ?exec_policy
    (app : app) : run_stats =
  let plan, stats =
    Workflow.Executor.run_on_demonstrator ~cloud_fpgas ~edges:2 ~endpoints:4
      ?faults ?exec_policy ~policy app.Compiler.Pipeline.dag
  in
  {
    makespan_s = stats.Workflow.Executor.makespan;
    energy_j = stats.Workflow.Executor.energy_j;
    bytes_moved = stats.Workflow.Executor.bytes_moved;
    policy = plan.Workflow.Scheduler.policy;
  }

(* Compare the four scheduling policies on the same application. *)
let compare_policies (app : app) =
  List.map
    (fun p -> (p, run ~policy:p app))
    [ "round-robin"; "min-load"; "heft"; "heft-locality" ]

(* ---- serve one kernel adaptively (the Fig. 2 loop) -------------------------------- *)

type served = {
  kernel : string;
  requests : int;
  mean_latency_s : float;
  variant_histogram : (string * int) list;
  switches : int;
  span_log : Everest_telemetry.Trace.span list;
}

let serve ?(n = 100) ?(goal = Autotune.Goal.make (Autotune.Goal.Minimize "time_s"))
    ?(telemetry = false) (app : app) ~kernel : served =
  let ck =
    match
      List.find_opt
        (fun k -> String.equal k.Compiler.Pipeline.ck_name kernel)
        app.Compiler.Pipeline.kernels
    with
    | Some k -> k
    | None -> invalid_arg ("serve: unknown kernel " ^ kernel)
  in
  let cluster = Platform.Cluster.create [ Platform.Cluster.power9_node "p9" ] in
  let tracer =
    if telemetry then Some (Runtime.Orchestrator.sim_tracer cluster) else None
  in
  let orch = Runtime.Orchestrator.create ?tracer cluster ~host_name:"p9" in
  let impls =
    List.map
      (fun (v : Compiler.Variants.variant) ->
        let impl =
          match Compiler.Variants.to_dag_impl ck.Compiler.Pipeline.expr v with
          | Workflow.Dag.Cpu { flops; bytes; threads } ->
              Runtime.Orchestrator.Sw { flops; bytes; threads }
          | Workflow.Dag.Fpga { bitstream; estimate; in_bytes; out_bytes } ->
              Runtime.Orchestrator.Hw { bitstream; estimate; in_bytes; out_bytes }
        in
        (v.Compiler.Variants.vname, impl))
      ck.Compiler.Pipeline.dse.Compiler.Dse.variants
  in
  let dk =
    Runtime.Orchestrator.deploy orch ~kname:kernel ~impls
      ~knowledge:ck.Compiler.Pipeline.knowledge ~goal
  in
  let log =
    Runtime.Orchestrator.serve orch ~kernel ~n
      ~policy:Runtime.Orchestrator.Adaptive ()
  in
  Runtime.Orchestrator.publish_metrics orch;
  {
    kernel;
    requests = List.length log;
    mean_latency_s = Runtime.Orchestrator.mean_latency log;
    variant_histogram = Runtime.Orchestrator.variant_histogram log;
    switches = dk.Runtime.Orchestrator.tuner.Autotune.Tuner.switches;
    span_log =
      (match tracer with
      | Some t -> Everest_telemetry.Trace.spans t
      | None -> []);
  }

let pp_run ppf (r : run_stats) =
  Fmt.pf ppf "policy=%s makespan=%.3gs energy=%.3gJ moved=%dB" r.policy
    r.makespan_s r.energy_j r.bytes_moved

let pp_served ppf (s : served) =
  Fmt.pf ppf "kernel=%s n=%d mean=%.2gs switches=%d variants=[%a]" s.kernel
    s.requests s.mean_latency_s s.switches
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any ":") string int))
    s.variant_histogram
