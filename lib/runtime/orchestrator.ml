(* The adaptive orchestrator: closes the loop between the mARGOt tuner, the
   virtualized execution layers and the simulated platform (Fig. 2, item 2:
   "dynamic hardware-software adaptation strategy").

   A kernel is deployed with its compile-time variants; requests arrive in
   closed loop; for every request the policy picks the variant, the runtime
   executes it (guest compute for software variants, vFPGA launches for
   hardware ones) and the measured latency is fed back to the tuner. *)

open Everest_platform
open Everest_autotune
module Trace = Everest_telemetry.Trace
module Metrics = Everest_telemetry.Metrics

type variant_impl =
  | Sw of { flops : float; bytes : float; threads : int }
  | Hw of {
      bitstream : string;
      estimate : Everest_hls.Estimate.t;
      in_bytes : int;
      out_bytes : int;
    }

(* A kernel's request-loop metrics, resolved once at [deploy] so serving
   a request looks nothing up by name. *)
type meters = {
  m_requests : Metrics.counter;
  m_switches : Metrics.counter;
  m_retries : Metrics.counter;
  m_failures : Metrics.counter;
  m_degraded : Metrics.counter;
  h_latency : Metrics.histogram;
  h_observed : (string * Metrics.histogram Lazy.t) list;
      (* per variant, registered on its first tuner observation *)
}

type deployed_kernel = {
  kname : string;
  impls : (string * variant_impl) list;
  tuner : Tuner.t;
  breakers : (string * Everest_resilience.Breaker.t) list;
      (* one per hardware variant: trips when the variant keeps failing,
         degrading requests to software until a half-open probe succeeds *)
  meters : meters;
  mutable slos : Everest_observe.Slo.monitor list;  (* of the last [serve] *)
}

type t = {
  cluster : Cluster.t;
  host : Node.t;
  vm : Vm.t;
  vfpga_mgr : Vfpga.t;
  vctx : Vfpga.vctx option;
  tracer : Trace.t;  (* simulated-clock spans of the request loop *)
  registry : Metrics.registry;
  mutable kernels : deployed_kernel list;
}

let create ?tracer ?(registry = Metrics.default) (cluster : Cluster.t) ~host_name =
  let host = Cluster.find_node cluster host_name in
  let vm = Vm.spawn (Vm.hypervisor host) ~name:"everest-app" ~vcpus:4 in
  let vfpga_mgr = Vfpga.create () in
  let vctx =
    if Node.has_fpga host then Some (Vfpga.allocate vfpga_mgr ~vm) else None
  in
  let tracer = Option.value ~default:Trace.noop tracer in
  { cluster; host; vm; vfpga_mgr; vctx; tracer; registry; kernels = [] }

(* Tracer on the cluster's simulated clock, for [?tracer] at [create]. *)
let sim_tracer (cluster : Cluster.t) =
  Trace.create ~clock:(fun () -> Desim.now cluster.Cluster.sim) ()

let deploy ?breaker orch ~kname ~impls ~(knowledge : Knowledge.t)
    ~(goal : Goal.t) =
  (* deployment-time configuration: preload every hardware variant's
     bitstream so first invocations do not pay reconfiguration *)
  (match orch.vctx with
  | Some ctx ->
      List.iter
        (fun (_, impl) ->
          match impl with
          | Hw { bitstream; _ } -> Node.preload ctx.Vfpga.dev ~bitstream
          | Sw _ -> ())
        impls
  | None -> ());
  let breakers =
    List.filter_map
      (fun (name, impl) ->
        match impl with
        | Hw _ ->
            Some
              (name, Everest_resilience.Breaker.create ?config:breaker ())
        | Sw _ -> None)
      impls
  in
  let registry = orch.registry and labels = [ ("kernel", kname) ] in
  let counter name = Metrics.counter ~registry ~labels name in
  let meters =
    { m_requests = counter "orchestrator_requests_total";
      m_switches = counter "orchestrator_variant_switches_total";
      m_retries = counter "orchestrator_retries_total";
      m_failures = counter "orchestrator_failures_total";
      m_degraded = counter "orchestrator_degraded_total";
      h_latency =
        Metrics.histogram ~registry ~labels "orchestrator_request_latency_s";
      h_observed =
        List.map
          (fun (variant, _) ->
            ( variant,
              lazy
                (Metrics.histogram ~registry
                   ~labels:(("variant", variant) :: labels)
                   "tuner_observed_time_s") ))
          impls }
  in
  let k =
    { kname; impls; tuner = Tuner.create knowledge goal; breakers; meters;
      slos = [] }
  in
  orch.kernels <- k :: orch.kernels;
  k

let breaker_state orch dk ~variant =
  let now = Desim.now orch.cluster.Cluster.sim in
  Option.map
    (fun b -> Everest_resilience.Breaker.state b ~now)
    (List.assoc_opt variant dk.breakers)

let find_kernel orch name =
  List.find (fun k -> String.equal k.kname name) orch.kernels

(* Checkpoint/restore.  The behavioural cross-request state of an
   orchestrator is: its simulated clock (breaker cooldowns and retry
   backoffs are measured on it), which bitstreams each FPGA device holds
   in which slot (whether the next invocation pays reconfiguration), and
   per deployed kernel the tuner knowledge plus breaker states.  Energy,
   utilization and counter telemetry is deliberately left out — it never
   feeds back into scheduling decisions. *)
type persisted_state = {
  ps_clock : float;
  ps_fpgas : (int * int * (int * string) list) list;
      (* dev_id, next_slot, slot -> bitstream *)
  ps_kernels :
    (string * Tuner.persisted
    * (string * Everest_resilience.Breaker.persisted) list)
    list;
}

(* A breaker is exported as a query at this instant sees it: one whose
   cooldown ran out during the last [serve] is promoted first, whether or
   not anything has queried it since. *)
let export_state orch =
  let now = Desim.now orch.cluster.Cluster.sim in
  {
    ps_clock = now;
    ps_fpgas =
      List.map
        (fun d -> (d.Node.dev_id, d.Node.next_slot, d.Node.loaded))
        orch.host.Node.fpgas;
    ps_kernels =
      List.map
        (fun dk ->
          ( dk.kname,
            Tuner.export dk.tuner,
            List.map
              (fun (v, b) ->
                ignore (Everest_resilience.Breaker.state b ~now);
                (v, Everest_resilience.Breaker.export b))
              dk.breakers ))
        orch.kernels;
  }

(* Restore into a freshly created-and-deployed orchestrator: kernels and
   variants must already exist (the deployment is code, not state). *)
let restore_state orch ps =
  Desim.warp orch.cluster.Cluster.sim ps.ps_clock;
  List.iter
    (fun (dev_id, next_slot, loaded) ->
      match
        List.find_opt (fun d -> d.Node.dev_id = dev_id) orch.host.Node.fpgas
      with
      | Some d ->
          d.Node.next_slot <- next_slot;
          d.Node.loaded <- loaded
      | None -> invalid_arg "Orchestrator.restore_state: unknown FPGA device")
    ps.ps_fpgas;
  List.iter
    (fun (kname, tuner_p, breakers_p) ->
      let dk =
        try find_kernel orch kname
        with Not_found -> invalid_arg "Orchestrator.restore_state: unknown kernel"
      in
      Tuner.import dk.tuner tuner_p;
      List.iter
        (fun (variant, bp) ->
          match List.assoc_opt variant dk.breakers with
          | Some b -> Everest_resilience.Breaker.import b bp
          | None ->
              invalid_arg "Orchestrator.restore_state: unknown breaker")
        breakers_p)
    ps.ps_kernels

(* Snapshot the runtime layers — tuner decisions, breakers, the SLO
   verdicts of the last [serve], vFPGA activity, the platform — into
   telemetry gauges of the orchestrator's registry.  The reader calls this;
   [serve] never does. *)
let publish_metrics orch =
  let registry = orch.registry in
  let g ?labels name v = Metrics.set (Metrics.gauge ~registry ?labels name) v in
  List.iter
    (fun dk ->
      let labels = [ ("kernel", dk.kname) ] in
      g ~labels "tuner_selections" (float_of_int dk.tuner.Tuner.selections);
      g ~labels "tuner_switches" (float_of_int dk.tuner.Tuner.switches);
      let now = Desim.now orch.cluster.Cluster.sim in
      List.iter
        (fun (variant, b) ->
          let labels = ("variant", variant) :: labels in
          (* 0 closed, 0.5 half-open, 1 open *)
          g ~labels "orchestrator_breaker_open"
            (match Everest_resilience.Breaker.state b ~now with
            | Everest_resilience.Breaker.Closed -> 0.0
            | Everest_resilience.Breaker.Half_open -> 0.5
            | Everest_resilience.Breaker.Open -> 1.0);
          g ~labels "orchestrator_breaker_opens"
            (float_of_int (Everest_resilience.Breaker.opens b)))
        dk.breakers;
      List.iter
        (fun m ->
          let module Slo = Everest_observe.Slo in
          let labels = labels @ [ ("slo", Slo.monitor_name m) ] in
          let r = Slo.snapshot m in
          g ~labels "orchestrator_slo_budget_used" r.Slo.budget_used;
          g ~labels "orchestrator_slo_met" (if r.Slo.met then 1.0 else 0.0);
          g ~labels "orchestrator_slo_alerts" (float_of_int (Slo.alerts m)))
        dk.slos)
    orch.kernels;
  g "vfpga_active_contexts"
    (float_of_int (Vfpga.active_contexts orch.vfpga_mgr));
  g "vfpga_denied" (float_of_int orch.vfpga_mgr.Vfpga.denied);
  Cluster.publish_metrics ~registry orch.cluster

(* Execute one variant; [k] receives the measured latency (simulated). *)
let execute orch (dk : deployed_kernel) ~variant
    ?(slowdown = fun _ -> 1.0) k =
  let sim = orch.cluster.Cluster.sim in
  let t0 = Desim.now sim in
  let impl =
    match List.assoc_opt variant dk.impls with
    | Some i -> i
    | None -> invalid_arg (dk.kname ^ ": unknown variant " ^ variant)
  in
  let factor = slowdown variant in
  match impl with
  | Sw { flops; bytes; threads } ->
      Vm.run_guest sim orch.vm ~flops:(flops *. factor) ~bytes ~threads
        (fun () -> k (Desim.now sim -. t0))
  | Hw { bitstream; estimate; in_bytes; out_bytes } -> (
      match orch.vctx with
      | None ->
          (* no FPGA: emulate on CPU, very slow *)
          Vm.run_guest sim orch.vm
            ~flops:(float_of_int estimate.Everest_hls.Estimate.cycles *. 50.0 *. factor)
            ~bytes:(float_of_int (in_bytes + out_bytes))
            ~threads:1
            (fun () -> k (Desim.now sim -. t0))
      | Some ctx ->
          let estimate =
            { estimate with
              Everest_hls.Estimate.cycles =
                int_of_float (float_of_int estimate.Everest_hls.Estimate.cycles *. factor) }
          in
          Vfpga.launch orch.vfpga_mgr sim ~vm:orch.vm ~ctx ~bitstream ~estimate
            ~in_bytes ~out_bytes (fun () -> k (Desim.now sim -. t0)))

type policy = Adaptive | Fixed of string | Random of int  (* seed *)

type request_log = {
  req : int;
  requested : string;  (* what the policy picked *)
  variant : string;  (* what actually served the request *)
  latency_s : float;  (* across all attempts *)
  attempts : int;
  degraded : bool;  (* breaker diverted a hardware pick to software *)
  ok : bool;
  t_done : float;  (* simulated completion time, for SLO windows *)
}

(* Serve [n] closed-loop requests under [policy].  [slowdown req variant]
   injects time-varying contention (the workload/resource shifts the runtime
   must react to).  [features req] supplies per-request data features.

   [fail ~req ~variant ~attempt] injects a deterministic per-attempt
   failure verdict.  Failures feed the variant's circuit breaker and are
   retried (with backoff) up to [max_attempts]; while a hardware variant's
   breaker is open, requests for it degrade to the first software variant
   until a half-open probe succeeds.

   [slos] are online SLO monitors fed as each request completes (simulated
   completion time, final latency and outcome); the kernel keeps them so
   [publish_metrics] can publish their verdicts.  Serving publishes
   nothing itself: it only bumps the counters resolved at [deploy]. *)
let serve orch ~kernel ~n ~policy
    ?(slowdown = fun _req _variant -> 1.0)
    ?(features = fun _req -> [])
    ?(fail = fun ~req:_ ~variant:_ ~attempt:_ -> false)
    ?(max_attempts = 3) ?(slos = []) () =
  let dk = find_kernel orch kernel in
  let meters = dk.meters in
  dk.slos <- slos;
  let trace_on = not (Trace.is_noop orch.tracer) in
  let last_variant = ref None in
  let log = ref [] in
  let rng =
    Everest_parallel.Rng.create
      (match policy with Random seed -> seed | Adaptive | Fixed _ -> 0)
  in
  let pick_random seed_variants =
    List.nth seed_variants
      (Everest_parallel.Rng.int rng (List.length seed_variants))
  in
  let sim = orch.cluster.Cluster.sim in
  let backoff_rng = Everest_parallel.Rng.create 0xB0FF in
  let sw_fallback () =
    List.find_map
      (fun (name, impl) ->
        match impl with Sw _ -> Some name | Hw _ -> None)
      dk.impls
  in
  let rec loop req =
    if req >= n then ()
    else begin
      let rspan =
        if trace_on then
          Some
            (Trace.start orch.tracer ~attrs:[ ("req", Trace.I req) ]
               ("request:" ^ kernel))
        else None
      in
      let parent = Option.map (fun s -> s.Trace.id) rspan in
      let requested =
        (* selection is instantaneous in simulated time; record it as a
           zero-width child so the decision is visible in the trace *)
        let sspan =
          if trace_on then
            Some (Trace.start orch.tracer ?parent "select")
          else None
        in
        let v =
          match policy with
          | Fixed v -> v
          | Random _ -> pick_random (List.map fst dk.impls)
          | Adaptive -> (
              match Tuner.select dk.tuner ~features:(features req) with
              | Some d -> d.Selector.point.Knowledge.variant
              | None -> fst (List.hd dk.impls))
        in
        Option.iter
          (fun s ->
            Trace.finish orch.tracer ~attrs:[ ("variant", Trace.S v) ] s)
          sspan;
        v
      in
      let t_req = Desim.now sim in
      let rec attempt_loop ~attempt ~prev_delay ~degraded_sofar =
        (* route through the variant's breaker: an open breaker on a
           hardware pick degrades the request to software instead of
           hammering a failing accelerator *)
        let variant, degraded_now =
          match List.assoc_opt requested dk.breakers with
          | Some b
            when not
                   (Everest_resilience.Breaker.allow b
                      ~now:(Desim.now sim)) -> (
              match sw_fallback () with
              | Some s -> (s, true)
              | None -> (requested, false))
          | _ -> (requested, false)
        in
        let degraded = degraded_sofar || degraded_now in
        if degraded_now then Metrics.inc meters.m_degraded;
        let espan =
          if trace_on then
            Some
              (Trace.start orch.tracer ?parent
                 ~attrs:
                   [ ("variant", Trace.S variant);
                     ("attempt", Trace.I attempt) ]
                 ("execute:" ^ variant))
          else None
        in
        execute orch dk ~variant ~slowdown:(slowdown req) (fun measured ->
            let now = Desim.now sim in
            let failed = fail ~req ~variant ~attempt in
            Option.iter
              (fun s ->
                Trace.finish orch.tracer
                  ~attrs:
                    [ ("status", Trace.S (if failed then "failed" else "ok")) ]
                  s)
              espan;
            (match List.assoc_opt variant dk.breakers with
            | Some b ->
                Everest_resilience.Breaker.record b ~now ~ok:(not failed)
            | None -> ());
            if failed && attempt < max_attempts then begin
              Metrics.inc meters.m_retries;
              let delay =
                Everest_resilience.Policy.next_delay
                  Everest_resilience.Policy.default_backoff ~rng:backoff_rng
                  ~prev:prev_delay
              in
              Desim.schedule sim delay (fun () ->
                  attempt_loop ~attempt:(attempt + 1) ~prev_delay:delay
                    ~degraded_sofar:degraded)
            end
            else begin
              let ok = not failed in
              if failed then Metrics.inc meters.m_failures;
              let latency = now -. t_req in
              (match !last_variant with
              | Some prev when not (String.equal prev variant) ->
                  Metrics.inc meters.m_switches
              | _ -> ());
              last_variant := Some variant;
              log :=
                { req; requested; variant; latency_s = latency;
                  attempts = attempt; degraded; ok; t_done = now }
                :: !log;
              List.iter
                (fun m ->
                  Everest_observe.Slo.observe m ~now ~latency_s:latency ~ok ())
                slos;
              Metrics.inc meters.m_requests;
              Metrics.observe meters.h_latency latency;
              (match policy with
              | Adaptive when ok ->
                  let ospan =
                    if trace_on then
                      Some (Trace.start orch.tracer ?parent "observe")
                    else None
                  in
                  (* feed the tuner the measured execution time, not the
                     retry-inflated request latency *)
                  Tuner.observe dk.tuner ~variant ~features:(features req)
                    ~measured:[ ("time_s", measured) ];
                  Metrics.observe
                    (Lazy.force (List.assoc variant meters.h_observed))
                    measured;
                  Option.iter (fun s -> Trace.finish orch.tracer s) ospan
              | _ -> ());
              Option.iter
                (fun s ->
                  Trace.finish orch.tracer
                    ~attrs:
                      [ ("variant", Trace.S variant);
                        ("latency_s", Trace.F latency);
                        ("ok", Trace.B ok) ]
                    s)
                rspan;
              loop (req + 1)
            end)
      in
      attempt_loop ~attempt:1 ~prev_delay:0.0 ~degraded_sofar:false
    end
  in
  loop 0;
  Cluster.run orch.cluster;
  List.rev !log

let total_latency log =
  List.fold_left (fun acc r -> acc +. r.latency_s) 0.0 log

let mean_latency log =
  match log with
  | [] -> 0.0
  | _ -> total_latency log /. float_of_int (List.length log)

(* Fraction of requests that ultimately succeeded. *)
let availability log =
  match log with
  | [] -> 1.0
  | _ ->
      let ok = List.length (List.filter (fun r -> r.ok) log) in
      float_of_int ok /. float_of_int (List.length log)

let degraded_requests log = List.length (List.filter (fun r -> r.degraded) log)

let slo_outcomes log =
  List.map
    (fun r ->
      { Everest_observe.Slo.o_t_s = r.t_done; o_ok = r.ok;
        o_latency_s = r.latency_s })
    log

let variant_histogram log =
  List.fold_left
    (fun acc r ->
      let c = Option.value ~default:0 (List.assoc_opt r.variant acc) in
      (r.variant, c + 1) :: List.remove_assoc r.variant acc)
    [] log
