(* Tests for everest_workflow: DAG construction, schedulers, and plan
   execution on the simulated platform. *)

open Everest_workflow
open Everest_platform

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let chain n =
  Dag.create "chain"
    (List.init n (fun i ->
         Dag.task ~id:i ~name:(Printf.sprintf "c%d" i)
           ~inputs:(if i = 0 then [] else [ i - 1 ])
           ~out_bytes:4096
           ~impls:[ Dag.Cpu { flops = 1e9; bytes = 4096.0; threads = 1 } ]
           ()))

(* ---- dag -------------------------------------------------------------------- *)

let test_dag_validation () =
  (match
     Dag.create "bad"
       [ Dag.task ~id:0 ~name:"a" ~inputs:[ 0 ] ~out_bytes:1 ~impls:[] () ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self-dependency must be rejected");
  let d = Dag.fork_join ~width:4 ~worker_flops:1e9 ~worker_bytes:1e6 ~chunk_bytes:1024 () in
  checki "fork-join size" 6 (Dag.size d);
  checki "join inputs" 4 (List.length (Dag.find d 5).Dag.inputs);
  checki "source consumers" 4 (List.length (Dag.consumers d 0))

let test_layered_generator () =
  let d = Dag.layered ~seed:7 ~layers:4 ~width:5 ~flops:1e8 ~bytes:1e5 () in
  checki "20 tasks" 20 (Dag.size d);
  (* deterministic *)
  let d2 = Dag.layered ~seed:7 ~layers:4 ~width:5 ~flops:1e8 ~bytes:1e5 () in
  checkb "deterministic" true
    (Array.for_all2
       (fun (a : Dag.task) b -> a.Dag.inputs = b.Dag.inputs)
       d.Dag.tasks d2.Dag.tasks)

(* ---- schedulers ---------------------------------------------------------------- *)

let test_all_policies_execute () =
  List.iter
    (fun policy ->
      let d = Dag.layered ~seed:3 ~layers:3 ~width:4 ~flops:1e9 ~bytes:1e5 () in
      let _, stats = Executor.run_on_demonstrator ~policy d in
      checkb (policy ^ " completes") true (stats.Executor.makespan > 0.0);
      checkb (policy ^ " all tasks finish") true
        (Array.for_all (fun f -> f >= 0.0) stats.Executor.task_finish))
    [ "round-robin"; "min-load"; "heft"; "heft-locality" ]

let test_chain_respects_deps () =
  let d = chain 5 in
  let _, stats = Executor.run_on_demonstrator ~policy:"heft" d in
  let f = stats.Executor.task_finish in
  for i = 1 to 4 do
    checkb "monotone chain" true (f.(i) > f.(i - 1))
  done

let test_locality_beats_round_robin_on_heavy_data () =
  (* Large intermediate data: shipping it around dominates, so the
     locality-aware plan should beat blind round-robin. *)
  let d = Dag.layered ~seed:11 ~layers:5 ~width:4 ~flops:1e8 ~bytes:5e8 () in
  let _, rr = Executor.run_on_demonstrator ~policy:"round-robin" d in
  let _, loc = Executor.run_on_demonstrator ~policy:"heft-locality" d in
  checkb "locality wins" true
    (loc.Executor.makespan < rr.Executor.makespan);
  checkb "locality moves less data" true
    (loc.Executor.bytes_moved <= rr.Executor.bytes_moved)

(* a sensor pinned to endpoint ep0 feeding one processing task *)
let pinned_sensor () =
  Dag.create "pinned"
    [ Dag.task ~id:0 ~name:"sensor" ~inputs:[] ~out_bytes:1024
        ~pinned:(Some "ep0")
        ~impls:[ Dag.Cpu { flops = 1e6; bytes = 1024.0; threads = 1 } ]
        ();
      Dag.task ~id:1 ~name:"proc" ~inputs:[ 0 ] ~out_bytes:64
        ~impls:[ Dag.Cpu { flops = 1e8; bytes = 1024.0; threads = 1 } ]
        () ]

let test_pinned_source () =
  let d = pinned_sensor () in
  let c = Cluster.everest_demonstrator () in
  let plan = Scheduler.locality c d in
  Alcotest.check Alcotest.string "source stays on endpoint" "ep0"
    plan.Scheduler.assignments.(0).Scheduler.node

(* A task pinned to a node HEFT may not use is placed as [heft_delta]
   places a task whose pin died: by EFT over the remaining nodes.  Here
   both tasks are in the dead node's cone, so the two plans agree. *)
let test_heft_excluded_pin () =
  let d = pinned_sensor () in
  let c = Cluster.everest_demonstrator () in
  List.iter
    (fun locality_aware ->
      let plan = Scheduler.heft ~locality_aware ~exclude:[ "ep0" ] c d in
      let delta =
        Scheduler.heft_delta ~locality_aware c
          (Scheduler.heft ~locality_aware c d)
          ~dead:[ "ep0" ]
      in
      checkb "not on the excluded pin" true
        (Array.for_all
           (fun (a : Scheduler.assignment) ->
             not (String.equal a.Scheduler.node "ep0"))
           plan.Scheduler.assignments);
      checkb "placed as heft_delta places it" true
        (plan.Scheduler.assignments = delta.Scheduler.assignments))
    [ false; true ]

(* A task pinned to a node where none of its implementations is feasible
   (an FPGA kernel on an FPGA-less endpoint) keeps its pin and its first
   implementation under every policy, as the executor's CPU fallback
   expects. *)
let test_pin_without_feasible_impl () =
  let est =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 1000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 5.0 }
  in
  let k =
    Dag.Fpga { bitstream = "k"; estimate = est; in_bytes = 1024;
               out_bytes = 1024 }
  in
  let d =
    Dag.create "pinned-fpga"
      [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:1024
          ~pinned:(Some "ep0") ~impls:[ k ] () ]
  in
  let c = Cluster.everest_demonstrator () in
  List.iter
    (fun policy ->
      let plan = (Option.get (Scheduler.by_name policy)) c d in
      Alcotest.check Alcotest.string (policy ^ " keeps the pin") "ep0"
        plan.Scheduler.assignments.(0).Scheduler.node;
      checkb (policy ^ " first impl") true
        (plan.Scheduler.assignments.(0).Scheduler.impl == k))
    [ "round-robin"; "min-load"; "heft"; "heft-locality" ];
  checkb "heft_reference agrees" true
    ((Scheduler.heft_reference c d).Scheduler.assignments
    = (Scheduler.heft c d).Scheduler.assignments)

let test_fpga_impl_selected_when_faster () =
  (* a kernel with a drastically better FPGA estimate must land on an FPGA
     node under HEFT *)
  let est =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 1000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 5.0 }
  in
  let d =
    Dag.create "hw"
      [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:1024
          ~impls:
            [ Dag.Cpu { flops = 1e12; bytes = 1e6; threads = 1 };
              Dag.Fpga { bitstream = "k"; estimate = est; in_bytes = 4096; out_bytes = 1024 } ]
          () ]
  in
  let c = Cluster.everest_demonstrator () in
  let plan = Scheduler.heft c d in
  (match plan.Scheduler.assignments.(0).Scheduler.impl with
  | Dag.Fpga _ -> ()
  | Dag.Cpu _ -> Alcotest.fail "expected FPGA variant chosen");
  let stats = Executor.execute c plan in
  checkb "fast finish" true (stats.Executor.makespan < 0.5)

let test_executor_stats () =
  let d = Dag.fork_join ~width:8 ~worker_flops:1e9 ~worker_bytes:1e6 ~chunk_bytes:65536 () in
  let _, stats = Executor.run_on_demonstrator ~policy:"min-load" d in
  checkb "energy accounted" true (stats.Executor.energy_j > 0.0);
  let total_tasks =
    List.fold_left (fun acc (_, k) -> acc + k) 0 stats.Executor.per_node_tasks
  in
  checki "all tasks counted" (Dag.size d) total_tasks

(* ---- fault tolerance ------------------------------------------------------------ *)

let test_failure_recovery () =
  (* run a wide fork-join; kill one cloud node early; everything must still
     complete, with retries or diversions recorded *)
  let d = Dag.fork_join ~width:16 ~worker_flops:5e9 ~worker_bytes:1e6 ~chunk_bytes:65536 () in
  let _, clean = Executor.run_on_demonstrator ~policy:"min-load" d in
  let _, faulty =
    Executor.run_on_demonstrator ~policy:"min-load"
      ~faults:(Everest_resilience.Faults.of_failures [ ("cf0", 1e-4); ("cf1", 1e-4) ])
      d
  in
  checkb "all tasks complete despite failures" true
    (Array.for_all (fun f -> f >= 0.0) faulty.Executor.task_finish);
  checkb "failures cost time" true
    (faulty.Executor.makespan >= clean.Executor.makespan)

let test_failure_mid_run_retries () =
  (* a long task on p9 that dies mid-execution must be retried elsewhere *)
  let d =
    Dag.create "long"
      [ Dag.task ~id:0 ~name:"big" ~inputs:[] ~out_bytes:64
          ~pinned:(Some "p9")
          ~impls:[ Dag.Cpu { flops = 1e12; bytes = 1.0; threads = 1 } ]
          () ]
  in
  let c = Cluster.everest_demonstrator () in
  let plan = Scheduler.min_load c d in
  let stats =
    Executor.execute ~faults:(Everest_resilience.Faults.of_failures [ ("p9", 0.5) ]) c plan
  in
  checkb "task finished" true (stats.Executor.task_finish.(0) >= 0.0);
  checkb "was retried" true (stats.Executor.retries >= 1)

let test_all_nodes_failed () =
  let d = chain 2 in
  let c = Cluster.create [ Cluster.power9_node "p9" ] in
  let plan = Scheduler.min_load c d in
  match Executor.execute ~faults:(Everest_resilience.Faults.of_failures [ ("p9", 0.0) ]) c plan with
  | exception Executor.Execution_failed { partial; _ } ->
      checki "no task completed" 0
        (Array.fold_left
           (fun acc f -> if f >= 0.0 then acc + 1 else acc)
           0 partial.Executor.task_finish)
  | _ -> Alcotest.fail "must fail when no node survives"

(* ---- data placement --------------------------------------------------------------- *)

let test_placement_replicates_hot_data () =
  (* one producer on the cloud, many consumers pinned to distinct edge
     nodes over slow links: parallel replication must beat serial pulls *)
  let width = 4 in
  let d =
    Dag.create "fanout"
      (Dag.task ~id:0 ~name:"src" ~inputs:[] ~out_bytes:50_000_000
         ~pinned:(Some "p9")
         ~impls:[ Dag.Cpu { flops = 1e6; bytes = 5e7; threads = 1 } ]
         ()
      :: List.init width (fun i ->
             Dag.task ~id:(i + 1)
               ~name:(Printf.sprintf "edge%d_task" i)
               ~inputs:[ 0 ] ~out_bytes:100
               ~pinned:(Some (Printf.sprintf "edge%d" i))
               ~impls:[ Dag.Cpu { flops = 1e6; bytes = 100.0; threads = 1 } ]
               ()))
  in
  let c = Cluster.everest_demonstrator ~edges:width () in
  let plan = Scheduler.locality c d in
  let allocs = Placement.optimize c plan in
  checki "one shared object" 1 (List.length allocs);
  let a = List.hd allocs in
  checkb "replication chosen" true
    (a.Placement.decision = Placement.Replicate_to_consumers);
  checkb "saving positive" true (Placement.saving allocs > 0.3)

let test_placement_keeps_local_data () =
  (* producer and single consumer co-located: nothing to optimize *)
  let d = chain 2 in
  let c = Cluster.create [ Cluster.power9_node "p9" ] in
  let plan = Scheduler.min_load c d in
  let allocs = Placement.optimize c plan in
  List.iter
    (fun (a : Placement.allocation) ->
      checkb "keep at producer" true (a.Placement.decision = Placement.Keep_at_producer);
      checkb "zero cost locally" true (a.Placement.chosen_cost_s = 0.0))
    allocs

let test_placement_never_worse () =
  let d = Dag.layered ~seed:21 ~layers:4 ~width:4 ~flops:1e8 ~bytes:1e7 () in
  let c = Cluster.everest_demonstrator () in
  List.iter
    (fun policy ->
      let plan = (Option.get (Scheduler.by_name policy)) c d in
      let allocs = Placement.optimize c plan in
      checkb (policy ^ ": chosen <= naive") true
        (Placement.total_chosen allocs <= Placement.total_pull allocs +. 1e-12))
    [ "round-robin"; "min-load"; "heft"; "heft-locality" ]

(* property: every plan assigns real nodes and FPGA impls only where FPGAs
   exist (modulo pinned fallbacks, which keep the first impl) *)
let prop_plans_well_formed =
  QCheck.Test.make ~count:20 ~name:"plans reference existing, capable nodes"
    QCheck.(pair (int_range 2 4) (int_range 2 5))
    (fun (layers, width) ->
      let d = Dag.layered ~seed:(layers + (width * 13)) ~layers ~width ~flops:1e8 ~bytes:1e5 () in
      let c = Cluster.everest_demonstrator () in
      List.for_all
        (fun mk ->
          let plan = mk c d in
          Array.for_all
            (fun (a : Scheduler.assignment) ->
              let node = Cluster.find_node c a.Scheduler.node in
              match a.Scheduler.impl with
              | Dag.Cpu _ -> true
              | Dag.Fpga _ -> Node.has_fpga node)
            plan.Scheduler.assignments)
        [ Scheduler.round_robin; Scheduler.min_load;
          Scheduler.heft ~locality_aware:false; Scheduler.locality ])

(* property: makespan is at least the best single-task time and finite *)
let prop_makespan_sane =
  QCheck.Test.make ~count:25 ~name:"makespan finite and positive"
    QCheck.(pair (int_range 2 5) (int_range 2 6))
    (fun (layers, width) ->
      let d = Dag.layered ~seed:(layers * 10 + width) ~layers ~width ~flops:1e8 ~bytes:1e4 () in
      let _, stats = Executor.run_on_demonstrator ~policy:"heft" d in
      Float.is_finite stats.Executor.makespan && stats.Executor.makespan > 0.0)

(* ---- scale engineering (e17) ------------------------------------------------ *)

(* Random small/medium DAGs across the three generator families, ≤ ~200
   tasks so the quadratic reference scheduler stays cheap in the property
   loop. *)
let arbitrary_dag =
  QCheck.(
    map
      (fun (kind, seed, a, b) ->
        match kind with
        | 0 ->
            Dag.layered ~seed ~layers:(2 + (a mod 8)) ~width:(1 + (b mod 12))
              ~flops:2e9 ~bytes:1e6 ()
        | 1 ->
            Dag.fork_join ~width:(2 + (a mod 40)) ~worker_flops:1e9
              ~worker_bytes:1e6
              ~chunk_bytes:(1024 * (1 + (b mod 64)))
              ()
        | _ ->
            Dag.ensemble ~seed ~members:(1 + (a mod 10)) ~stages:(1 + (b mod 8))
              ~stage_flops:1e9 ~stage_bytes:1e5 ())
      (quad (int_range 0 2) (int_range 0 1000) (int_range 0 1000)
         (int_range 0 1000)))

(* satellite: the cached reverse adjacency must agree with the historical
   O(n·deg) scan for every task, in the same (ascending, deduplicated)
   order *)
let prop_consumers_match_naive =
  QCheck.Test.make ~count:50 ~name:"Dag.consumers = consumers_naive"
    arbitrary_dag
    (fun d ->
      List.for_all
        (fun i ->
          Dag.consumers d i = Dag.consumers_naive d i
          && Dag.out_degree d i = List.length (Dag.consumers_naive d i))
        (List.init (Dag.size d) Fun.id))

(* tentpole: the memoized array-based HEFT must produce plans
   assignment-identical to the pre-PR implementation *)
let prop_heft_matches_reference =
  QCheck.Test.make ~count:30 ~name:"heft = heft_reference (both variants)"
    arbitrary_dag
    (fun d ->
      let c = Cluster.everest_demonstrator () in
      List.for_all
        (fun locality_aware ->
          let fast = Scheduler.heft ~locality_aware c d in
          let slow = Scheduler.heft_reference ~locality_aware c d in
          fast.Scheduler.assignments = slow.Scheduler.assignments
          && String.equal fast.Scheduler.policy slow.Scheduler.policy)
        [ false; true ])

(* satellite: repairing a plan after node death must land within ε of a
   full reschedule over the survivors.  ε is calibrated loose (35%):
   delta keeps unaffected placements frozen, so it trades some quality for
   cone-local decision time; what the property pins is that it never
   collapses (and never beats physics: both makespans are executable). *)
let prop_delta_close_to_full =
  QCheck.Test.make ~count:15 ~name:"heft_delta within ε of full reschedule"
    arbitrary_dag
    (fun d ->
      let dead = [ "p9" ] in
      let run plan =
        let c' = Cluster.everest_demonstrator () in
        let stats = Executor.execute c' { plan with Scheduler.dag = d } in
        stats.Executor.makespan
      in
      let c = Cluster.everest_demonstrator () in
      let base = Scheduler.heft c d in
      let delta = Scheduler.heft_delta c base ~dead in
      let full = Scheduler.heft ~exclude:dead c d in
      (* delta must really vacate the dead node *)
      Array.for_all
        (fun (a : Scheduler.assignment) ->
          not (List.mem a.Scheduler.node dead))
        delta.Scheduler.assignments
      &&
      let m_delta = run delta and m_full = run full in
      Float.is_finite m_delta && m_delta > 0.0
      && m_delta <= m_full *. 1.35 +. 1e-9)

let plan_digest (plan : Scheduler.plan) =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (a : Scheduler.assignment) ->
      Buffer.add_string buf a.Scheduler.node;
      Buffer.add_char buf '/';
      Buffer.add_string buf (Dag.impl_name a.Scheduler.impl);
      Buffer.add_char buf ';')
    plan.Scheduler.assignments;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Golden digests captured from the pre-memoization scheduler on the
   e14/e15 workloads (demonstrator cluster).  Any drift here means the
   scale overhaul changed placement, which it must not. *)
let test_plan_goldens () =
  let checks = Alcotest.check Alcotest.string in
  let e14 = Dag.layered ~seed:11 ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 () in
  let e15 = Dag.layered ~seed:7 ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 () in
  let digest policy dag =
    let c = Cluster.everest_demonstrator () in
    plan_digest ((Option.get (Scheduler.by_name policy)) c dag)
  in
  List.iter
    (fun (name, dag, policy, expect) ->
      checks (name ^ " " ^ policy) expect (digest policy dag))
    [ ("e14", e14, "round-robin", "fdfa36d88cdac2a3e5cf751588b2876a");
      ("e14", e14, "min-load", "ad03b338ce475cf4acda9efabed721b4");
      ("e14", e14, "heft", "cdc35b0538c938f189f0e000ffb40305");
      ("e14", e14, "heft-locality", "4669a6d5ac50e3387f3b734399c8171b");
      ("e15", e15, "round-robin", "fdfa36d88cdac2a3e5cf751588b2876a");
      ("e15", e15, "min-load", "ad03b338ce475cf4acda9efabed721b4");
      ("e15", e15, "heft", "4aafecd46c3d80327977d421f1f59d13");
      ("e15", e15, "heft-locality", "0b25ebf2263a5752aa8c121b1a0ea4e8") ]

let test_ensemble_generator () =
  let d = Dag.ensemble ~seed:3 ~members:4 ~stages:3 ~stage_flops:1e9 ~stage_bytes:1e5 () in
  checki "size = 1 + members*stages + 1" 14 (Dag.size d);
  checki "source fan-out" 4 (List.length (Dag.consumers d 0));
  checki "reducer fan-in" 4 (List.length (Dag.find d 13).Dag.inputs);
  let d2 = Dag.ensemble ~seed:3 ~members:4 ~stages:3 ~stage_flops:1e9 ~stage_bytes:1e5 () in
  checkb "deterministic" true
    (Array.for_all2
       (fun (a : Dag.task) b ->
         a.Dag.inputs = b.Dag.inputs && a.Dag.impls = b.Dag.impls)
       d.Dag.tasks d2.Dag.tasks)

(* satellite: construction errors must name the dag, the offending task
   (id and name) and the bad input, so a failure inside a generated
   million-task graph is actionable *)
let test_dag_error_messages () =
  let expect_msg parts thunk =
    match thunk () with
    | exception Invalid_argument msg ->
        List.iter
          (fun part ->
            checkb
              (Printf.sprintf "%S mentions %S" msg part)
              true
              (Astring.String.is_infix ~affix:part msg))
          parts
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let t ~id ~inputs =
    Dag.task ~id ~name:(Printf.sprintf "t%d" id) ~inputs ~out_bytes:1
      ~impls:[ Dag.Cpu { flops = 1.0; bytes = 1.0; threads = 1 } ]
      ()
  in
  expect_msg [ "\"gaps\""; "task 5"; "\"t5\""; "expected id 1" ] (fun () ->
      Dag.create "gaps" [ t ~id:0 ~inputs:[]; t ~id:5 ~inputs:[] ]);
  expect_msg [ "\"fwd\""; "task 1"; "\"t1\""; "input 1" ] (fun () ->
      Dag.create "fwd" [ t ~id:0 ~inputs:[]; t ~id:1 ~inputs:[ 1 ] ]);
  expect_msg [ "\"neg\""; "task 1"; "input -3"; "negative" ] (fun () ->
      Dag.create "neg" [ t ~id:0 ~inputs:[]; t ~id:1 ~inputs:[ -3 ] ]);
  expect_msg [ "\"dup\""; "task 2"; "\"t2\""; "input 1"; "more than once" ]
    (fun () ->
      Dag.create "dup"
        [ t ~id:0 ~inputs:[]; t ~id:1 ~inputs:[ 0 ];
          t ~id:2 ~inputs:[ 1; 0; 1 ] ])

let () =
  Alcotest.run "everest_workflow"
    [
      ( "dag",
        [ Alcotest.test_case "validation" `Quick test_dag_validation;
          Alcotest.test_case "error messages" `Quick test_dag_error_messages;
          Alcotest.test_case "layered gen" `Quick test_layered_generator;
          Alcotest.test_case "ensemble gen" `Quick test_ensemble_generator;
          QCheck_alcotest.to_alcotest prop_consumers_match_naive ] );
      ( "schedulers",
        [ Alcotest.test_case "all policies" `Quick test_all_policies_execute;
          Alcotest.test_case "chain deps" `Quick test_chain_respects_deps;
          Alcotest.test_case "locality wins" `Quick test_locality_beats_round_robin_on_heavy_data;
          Alcotest.test_case "pinned source" `Quick test_pinned_source;
          Alcotest.test_case "excluded pin" `Quick test_heft_excluded_pin;
          Alcotest.test_case "pin without feasible impl" `Quick
            test_pin_without_feasible_impl;
          Alcotest.test_case "fpga variant" `Quick test_fpga_impl_selected_when_faster ] );
      ( "scale",
        [ Alcotest.test_case "plan goldens" `Quick test_plan_goldens;
          QCheck_alcotest.to_alcotest prop_heft_matches_reference;
          QCheck_alcotest.to_alcotest prop_delta_close_to_full ] );
      ( "executor",
        [ Alcotest.test_case "stats" `Quick test_executor_stats;
          QCheck_alcotest.to_alcotest prop_makespan_sane;
          QCheck_alcotest.to_alcotest prop_plans_well_formed ] );
      ( "placement",
        [ Alcotest.test_case "replicates hot data" `Quick test_placement_replicates_hot_data;
          Alcotest.test_case "keeps local" `Quick test_placement_keeps_local_data;
          Alcotest.test_case "never worse" `Quick test_placement_never_worse ] );
      ( "fault-tolerance",
        [ Alcotest.test_case "recovery" `Quick test_failure_recovery;
          Alcotest.test_case "mid-run retry" `Quick test_failure_mid_run_retries;
          Alcotest.test_case "total failure" `Quick test_all_nodes_failed ] );
    ]
