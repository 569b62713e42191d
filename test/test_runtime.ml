(* Tests for everest_runtime: VMs, API remoting, vFPGA isolation, the data
   protection layer and the adaptive orchestrator. *)

open Everest_runtime
open Everest_platform

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let small_estimate cycles =
  { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area; cycles;
    ii = 1; clock_mhz = 250.0; dynamic_power_w = 8.0 }

(* ---- VMs ---------------------------------------------------------------------- *)

let test_vm_admission () =
  let node = Cluster.power9_node "p9" in
  let h = Vm.hypervisor node in
  let _a = Vm.spawn h ~name:"a" ~vcpus:16 in
  let _b = Vm.spawn h ~name:"b" ~vcpus:16 in
  (* 2x oversubscription limit = 32 vCPUs on 16 cores *)
  match Vm.spawn h ~name:"c" ~vcpus:1 with
  | exception Vm.Admission_failed _ -> ()
  | _ -> Alcotest.fail "oversubscription must be rejected"

let test_vm_overhead () =
  let sim = Desim.create () in
  let node = Node.create ~name:"n" ~tier:Spec.Cloud Spec.power9 in
  let h = { (Vm.hypervisor node) with Vm.default_overhead = 1.5 } in
  let vm = Vm.spawn h ~name:"g" ~vcpus:4 in
  let t_guest = ref 0.0 in
  Vm.run_guest sim vm ~flops:1e10 ~bytes:1.0 ~threads:1 (fun () ->
      t_guest := Desim.now sim);
  Desim.run sim;
  let t_native = Spec.cpu_time Spec.power9 ~flops:1e10 ~bytes:1.0 ~threads:1 in
  checkb "overhead applied" true
    (Float.abs (!t_guest -. (1.5 *. t_native)) < 1e-9)

let test_vm_stopped_rejects () =
  let sim = Desim.create () in
  let node = Node.create ~name:"n" ~tier:Spec.Cloud Spec.power9 in
  let h = Vm.hypervisor node in
  let vm = Vm.spawn h ~name:"g" ~vcpus:2 in
  vm.Vm.running <- false;
  match Vm.run_guest sim vm ~flops:1.0 ~bytes:1.0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stopped VM must reject work"

(* ---- remoting ------------------------------------------------------------------- *)

let test_remoting_batching () =
  let t = Remoting.virtio_default in
  let unbatched = Remoting.cost { t with Remoting.batch_limit = 1 } ~calls:64 ~bytes_per_call:1024 in
  let batched = Remoting.cost t ~calls:64 ~bytes_per_call:1024 in
  checkb "batching reduces cost" true (batched < unbatched);
  checkb "amortization > 2x" true
    (Remoting.amortization t ~calls:64 ~bytes_per_call:1024 > 2.0)

let test_remoting_passthrough_cheaper_per_call () =
  let c_remote = Remoting.cost Remoting.virtio_default ~calls:1 ~bytes_per_call:64 in
  let c_pass = Remoting.cost Remoting.passthrough ~calls:1 ~bytes_per_call:64 in
  checkb "passthrough cheaper for single calls" true (c_pass < c_remote)

(* ---- vFPGA ----------------------------------------------------------------------- *)

let test_vfpga_isolation () =
  let cluster = Cluster.create [ Cluster.power9_node "p9" ] in
  let host = Cluster.find_node cluster "p9" in
  let h = Vm.hypervisor host in
  let vm1 = Vm.spawn h ~name:"tenant1" ~vcpus:2 in
  let vm2 = Vm.spawn h ~name:"tenant2" ~vcpus:2 in
  let mgr = Vfpga.create () in
  let ctx1 = Vfpga.allocate mgr ~vm:vm1 in
  checki "one active ctx" 1 (Vfpga.active_contexts mgr);
  (* vm2 tries to use vm1's context *)
  (match
     Vfpga.launch mgr cluster.Cluster.sim ~vm:vm2 ~ctx:ctx1 ~bitstream:"x"
       ~estimate:(small_estimate 1000) ~in_bytes:0 ~out_bytes:0 (fun () -> ())
   with
  | exception Vfpga.Isolation_violation _ -> ()
  | _ -> Alcotest.fail "cross-tenant launch must be blocked");
  checki "denial recorded" 1 mgr.Vfpga.denied;
  (* legitimate launch works *)
  let ok = ref false in
  Vfpga.launch mgr cluster.Cluster.sim ~vm:vm1 ~ctx:ctx1 ~bitstream:"x"
    ~estimate:(small_estimate 1000) ~in_bytes:128 ~out_bytes:128 (fun () ->
      ok := true);
  Cluster.run cluster;
  checkb "owner can launch" true !ok;
  checki "launch counted" 1 ctx1.Vfpga.launches

let test_vfpga_no_fpga () =
  let cluster = Cluster.create [ Cluster.endpoint_node "ep" ] in
  let host = Cluster.find_node cluster "ep" in
  let h = Vm.hypervisor host in
  let vm = Vm.spawn h ~name:"t" ~vcpus:1 in
  match Vfpga.allocate (Vfpga.create ()) ~vm with
  | exception Vfpga.No_fpga _ -> ()
  | _ -> Alcotest.fail "endpoint has no FPGA"

(* ---- protection layer -------------------------------------------------------------- *)

let test_protection_quarantine () =
  let layer = Protection.create () in
  let s = Protection.register layer in
  (* train on clean traffic *)
  for i = 0 to 99 do
    Protection.train s
      ~values:[ 20.0 +. Float.of_int (i mod 5) ]
      ~bytes:1000 ~latency_s:0.010
  done;
  Protection.finalize s;
  (* clean batch passes *)
  (match Protection.admit layer s ~values:[ 21.5 ] ~bytes:1020 ~latency_s:0.011 with
  | Protection.Accepted -> ()
  | Protection.Rejected r -> Alcotest.failf "clean batch rejected: %s" r);
  (* poisoned values trigger range monitor -> eventually policy reaction *)
  let rec poison n =
    if n > 0 then begin
      ignore (Protection.admit layer s ~values:[ 9999.0 ] ~bytes:1010 ~latency_s:0.010);
      poison (n - 1)
    end
  in
  poison 3;
  checkb "alerts raised" true (layer.Protection.total_alerts > 0);
  checkb "encryption forced or hardened" true
    (s.Protection.force_encryption || s.Protection.hardened_variant <> None)

let test_protection_access_burst_quarantines () =
  let layer = Protection.create () in
  let s = Protection.register layer in
  for _i = 0 to 49 do
    Protection.train s ~values:[ 1.0 ] ~bytes:100 ~latency_s:0.001
  done;
  Protection.finalize s;
  (* simulate an access-pattern attack event directly through the policy *)
  Protection.apply_actions layer s
    (Everest_security.Monitor.policy
       (Everest_security.Monitor.classify_event "access" "scan"));
  checkb "quarantined" true s.Protection.quarantined;
  match Protection.admit layer s ~values:[ 1.0 ] ~bytes:100 ~latency_s:0.001 with
  | Protection.Rejected _ -> ()
  | Protection.Accepted -> Alcotest.fail "quarantined stream must reject"

(* ---- orchestrator -------------------------------------------------------------------- *)

let knowledge_for_impls () =
  Everest_autotune.Knowledge.create "k"
    [ { Everest_autotune.Knowledge.variant = "sw"; features = [];
        metrics = [ ("time_s", 0.01) ] };
      { Everest_autotune.Knowledge.variant = "hw"; features = [];
        metrics = [ ("time_s", 0.001) ] } ]

let impls () =
  [ ("sw", Orchestrator.Sw { flops = 5e8; bytes = 1e5; threads = 2 });
    ("hw",
     Orchestrator.Hw
       { bitstream = "k"; estimate = small_estimate 100_000; in_bytes = 4096;
         out_bytes = 4096 }) ]

let fresh_orch () =
  let cluster = Cluster.create [ Cluster.power9_node "p9" ] in
  Orchestrator.create cluster ~host_name:"p9"

(* The orchestrator owns the runtime's metrics: serving lands the tuner's
   per-variant observations in the orchestrator's registry and publishes
   no snapshot; the gauges appear when the reader calls [publish_metrics].
   Nothing reaches the process-wide registry. *)
let test_orchestrator_metrics_owner () =
  let module Metrics = Everest_telemetry.Metrics in
  Metrics.reset Metrics.default;
  let r = Metrics.create_registry () in
  let cluster = Cluster.create [ Cluster.power9_node "p9" ] in
  let orch = Orchestrator.create ~registry:r cluster ~host_name:"p9" in
  let _ =
    Orchestrator.deploy orch ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let n = 20 in
  ignore (Orchestrator.serve orch ~kernel:"k" ~n ~policy:Orchestrator.Adaptive ());
  let observed =
    List.filter
      (fun (m : Metrics.metric) -> m.Metrics.mname = "tuner_observed_time_s")
      (Metrics.metrics r)
  in
  checkb "observations in the orchestrator's registry" true (observed <> []);
  checki "every request observed" n
    (List.fold_left
       (fun acc (m : Metrics.metric) ->
         match m.Metrics.value with
         | Metrics.Histogram h -> acc + Metrics.hist_count h
         | _ -> acc)
       0 observed);
  let selections () =
    Metrics.find ~registry:r ~labels:[ ("kernel", "k") ] "tuner_selections"
  in
  checkb "no snapshot before publish" true (selections () = None);
  checki "default registry empty after serve" 0
    (List.length (Metrics.metrics Metrics.default));
  Orchestrator.publish_metrics orch;
  (match selections () with
  | Some { Metrics.value = Metrics.Gauge g; _ } ->
      Alcotest.check (Alcotest.float 0.0) "selections gauge" (float_of_int n) !g
  | _ -> Alcotest.fail "tuner_selections missing after publish");
  checki "default registry empty after publish" 0
    (List.length (Metrics.metrics Metrics.default))

let test_orchestrator_fixed_policies () =
  let orch = fresh_orch () in
  let _ =
    Orchestrator.deploy orch ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let log = Orchestrator.serve orch ~kernel:"k" ~n:10 ~policy:(Orchestrator.Fixed "sw") () in
  checki "10 requests" 10 (List.length log);
  checkb "all sw" true
    (List.for_all (fun r -> r.Orchestrator.variant = "sw") log)

let test_orchestrator_adaptive_prefers_hw () =
  let orch = fresh_orch () in
  let _ =
    Orchestrator.deploy orch ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let log = Orchestrator.serve orch ~kernel:"k" ~n:20 ~policy:Orchestrator.Adaptive () in
  let hist = Orchestrator.variant_histogram log in
  let hw = Option.value ~default:0 (List.assoc_opt "hw" hist) in
  checkb "hw dominates" true (hw > 15)

let test_orchestrator_adapts_to_contention () =
  let orch = fresh_orch () in
  let _ =
    Orchestrator.deploy orch ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  (* after request 10, the FPGA becomes 100x slower (contention) *)
  let slowdown req variant =
    if req >= 10 && String.equal variant "hw" then 100.0 else 1.0
  in
  let log =
    Orchestrator.serve orch ~kernel:"k" ~n:40 ~policy:Orchestrator.Adaptive
      ~slowdown ()
  in
  let late = List.filteri (fun i _ -> i >= 30) log in
  checkb "switched away from hw under contention" true
    (List.for_all (fun r -> r.Orchestrator.variant = "sw") late);
  (* compare with stubborn policy *)
  let orch2 = fresh_orch () in
  let _ =
    Orchestrator.deploy orch2 ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let log_fixed =
    Orchestrator.serve orch2 ~kernel:"k" ~n:40 ~policy:(Orchestrator.Fixed "hw")
      ~slowdown ()
  in
  checkb "adaptive beats stubborn hw" true
    (Orchestrator.total_latency log < Orchestrator.total_latency log_fixed)

let test_orchestrator_breaker_degrades () =
  (* the hw variant fails every attempt for a while: its breaker must open,
     requests degrade to sw, and after the cooldown a half-open probe
     succeeds and hw serves again *)
  let orch = fresh_orch () in
  let dk =
    Orchestrator.deploy orch
      ~breaker:
        { Everest_resilience.Breaker.failure_threshold = 2; cooldown_s = 0.01;
          half_open_probes = 1 }
      ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  (* hw attempts fail on the first 6 requests, then the fault clears *)
  let fail ~req ~variant ~attempt:_ = req < 6 && String.equal variant "hw" in
  let log =
    Orchestrator.serve orch ~kernel:"k" ~n:30 ~policy:(Orchestrator.Fixed "hw")
      ~fail ()
  in
  checki "every request answered" 30 (List.length log);
  checkb "requests degraded to sw during the outage" true
    (List.exists
       (fun r -> r.Orchestrator.degraded && r.Orchestrator.variant = "sw")
       log);
  let late = List.filteri (fun i _ -> i >= 10) log in
  checkb "hw back after the probe" true
    (List.for_all
       (fun r -> r.Orchestrator.variant = "hw" && r.Orchestrator.ok)
       late);
  checkb "breaker opened at least once" true
    (List.exists
       (fun (_, b) -> Everest_resilience.Breaker.opens b >= 1)
       dk.Orchestrator.breakers);
  checkb "breaker closed again" true
    (Orchestrator.breaker_state orch dk ~variant:"hw"
    = Some Everest_resilience.Breaker.Closed);
  checkb "availability accounts failures" true
    (Orchestrator.availability log <= 1.0
    && Orchestrator.degraded_requests log >= 1)

let test_orchestrator_random_policy () =
  let orch = fresh_orch () in
  let _ =
    Orchestrator.deploy orch ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let log = Orchestrator.serve orch ~kernel:"k" ~n:30 ~policy:(Orchestrator.Random 7) () in
  let hist = Orchestrator.variant_histogram log in
  checkb "both variants explored" true (List.length hist = 2)

let test_orchestrator_random_seeded () =
  (* the policy's seed picks the stream: two seeds on one deployment draw
     different variant sequences, and a seed replays its own *)
  let orch = fresh_orch () in
  let _ =
    Orchestrator.deploy orch ~kname:"k" ~impls:(impls ())
      ~knowledge:(knowledge_for_impls ())
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let picks seed =
    List.map
      (fun r -> r.Orchestrator.requested)
      (Orchestrator.serve orch ~kernel:"k" ~n:30
         ~policy:(Orchestrator.Random seed) ())
  in
  let p7 = picks 7 in
  checkb "seeds 7 and 8 differ" true (p7 <> picks 8);
  checkb "seed 7 replays" true (p7 = picks 7)

let () =
  Alcotest.run "everest_runtime"
    [
      ( "vm",
        [ Alcotest.test_case "admission" `Quick test_vm_admission;
          Alcotest.test_case "overhead" `Quick test_vm_overhead;
          Alcotest.test_case "stopped" `Quick test_vm_stopped_rejects ] );
      ( "remoting",
        [ Alcotest.test_case "batching" `Quick test_remoting_batching;
          Alcotest.test_case "passthrough" `Quick test_remoting_passthrough_cheaper_per_call ] );
      ( "vfpga",
        [ Alcotest.test_case "isolation" `Quick test_vfpga_isolation;
          Alcotest.test_case "no fpga" `Quick test_vfpga_no_fpga ] );
      ( "protection",
        [ Alcotest.test_case "quarantine flow" `Quick test_protection_quarantine;
          Alcotest.test_case "access burst" `Quick test_protection_access_burst_quarantines ] );
      ( "orchestrator",
        [ Alcotest.test_case "fixed" `Quick test_orchestrator_fixed_policies;
          Alcotest.test_case "adaptive prefers hw" `Quick test_orchestrator_adaptive_prefers_hw;
          Alcotest.test_case "adapts to contention" `Quick test_orchestrator_adapts_to_contention;
          Alcotest.test_case "random explores" `Quick test_orchestrator_random_policy;
          Alcotest.test_case "random follows its seed" `Quick
            test_orchestrator_random_seeded;
          Alcotest.test_case "breaker degrades hw to sw" `Quick
            test_orchestrator_breaker_degrades;
          Alcotest.test_case "owns its metrics" `Quick
            test_orchestrator_metrics_owner ] );
    ]
