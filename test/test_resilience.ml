(* Tests for everest_resilience: fault plans, recovery policies, circuit
   breakers, heartbeat health monitoring, output lineage — and their wiring
   through the workflow executor, the orchestrator and API remoting. *)

open Everest_workflow
open Everest_platform
open Everest_resilience
module Trace = Everest_telemetry.Trace

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-12)

(* ---- fault plans ----------------------------------------------------------- *)

let test_faults_windows () =
  let f =
    Faults.plan
      ~windows:
        [ { Faults.w_node = "a"; w_down = 1.0; w_up = Some 2.0 };
          { Faults.w_node = "b"; w_down = 3.0; w_up = None } ]
      ()
  in
  checkb "a alive before" false (Faults.node_dead f ~node:"a" ~now:0.5);
  checkb "a dead inside" true (Faults.node_dead f ~node:"a" ~now:1.5);
  checkb "a back after restart" false (Faults.node_dead f ~node:"a" ~now:2.5);
  checkb "b permanently dead" true (Faults.node_dead f ~node:"b" ~now:1e9);
  checkb "crash inside interval" true
    (Faults.down_between f ~node:"a" ~t0:0.5 ~t1:2.5);
  checkb "no crash before" false
    (Faults.down_between f ~node:"a" ~t0:0.0 ~t1:0.9)

let test_faults_deterministic_draws () =
  let f = Faults.plan ~seed:9 ~transient_prob:0.4 () in
  let g = Faults.plan ~seed:9 ~transient_prob:0.4 () in
  for task = 0 to 20 do
    for attempt = 0 to 3 do
      checkb "same verdict" (Faults.transient f ~task ~attempt)
        (Faults.transient g ~task ~attempt)
    done
  done;
  (* a different seed must flip at least one verdict over a decent range *)
  let h = Faults.plan ~seed:10 ~transient_prob:0.4 () in
  let differs = ref false in
  for task = 0 to 50 do
    if Faults.transient f ~task ~attempt:0 <> Faults.transient h ~task ~attempt:0
    then differs := true
  done;
  checkb "seed matters" true !differs

let test_faults_validation () =
  (match Faults.plan ~transient_prob:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability > 1 must be rejected");
  (match Faults.plan ~transient_prob:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability = 1 must be rejected")

let test_faults_shim () =
  let f = Faults.of_failures [ ("n", 2.0) ] in
  checkb "alive before" false (Faults.node_dead f ~node:"n" ~now:1.0);
  checkb "dead forever after" true (Faults.node_dead f ~node:"n" ~now:1e12)

(* ---- recovery policy ------------------------------------------------------- *)

let test_backoff_bounds () =
  let b = { Policy.base_s = 0.01; factor = 3.0; max_s = 0.05 } in
  let rng = Everest_parallel.Rng.create 1 in
  let prev = ref 0.0 in
  for _ = 1 to 100 do
    let d = Policy.next_delay b ~rng ~prev:!prev in
    checkb "at least base" true (d >= b.Policy.base_s);
    checkb "capped" true (d <= b.Policy.max_s);
    prev := d
  done;
  let off = { Policy.base_s = 0.0; factor = 2.0; max_s = 1.0 } in
  checkf "zero base disables" 0.0 (Policy.next_delay off ~rng ~prev:0.02)

(* ---- circuit breaker ------------------------------------------------------- *)

let test_breaker_lifecycle () =
  let cfg =
    { Breaker.failure_threshold = 2; cooldown_s = 1.0; half_open_probes = 1 }
  in
  let b = Breaker.create ~config:cfg () in
  checkb "starts closed" true (Breaker.state b ~now:0.0 = Breaker.Closed);
  Breaker.record b ~now:0.1 ~ok:false;
  checkb "one failure stays closed" true
    (Breaker.state b ~now:0.1 = Breaker.Closed);
  Breaker.record b ~now:0.2 ~ok:false;
  checkb "threshold opens" true (Breaker.state b ~now:0.2 = Breaker.Open);
  checkb "open rejects" false (Breaker.allow b ~now:0.5);
  checkb "cooldown half-opens" true
    (Breaker.state b ~now:1.3 = Breaker.Half_open);
  checkb "half-open admits probe" true (Breaker.allow b ~now:1.3);
  checkb "probe budget bounded" false (Breaker.allow b ~now:1.3);
  Breaker.record b ~now:1.4 ~ok:true;
  checkb "probe success closes" true
    (Breaker.state b ~now:1.4 = Breaker.Closed);
  checki "opened once" 1 (Breaker.opens b)

let test_breaker_reopen_on_failed_probe () =
  let cfg =
    { Breaker.failure_threshold = 1; cooldown_s = 1.0; half_open_probes = 1 }
  in
  let b = Breaker.create ~config:cfg () in
  Breaker.record b ~now:0.0 ~ok:false;
  checkb "open" true (Breaker.state b ~now:0.0 = Breaker.Open);
  ignore (Breaker.allow b ~now:1.5);
  Breaker.record b ~now:1.6 ~ok:false;
  checkb "failed probe re-opens" true (Breaker.state b ~now:1.6 = Breaker.Open);
  checki "opened twice" 2 (Breaker.opens b);
  checkb "success interleaves reset closed counting" true
    (List.length (Breaker.export b).Breaker.p_transitions >= 3)

let test_breaker_success_resets_streak () =
  let cfg =
    { Breaker.failure_threshold = 3; cooldown_s = 1.0; half_open_probes = 1 }
  in
  let b = Breaker.create ~config:cfg () in
  Breaker.record b ~now:0.0 ~ok:false;
  Breaker.record b ~now:0.1 ~ok:false;
  Breaker.record b ~now:0.2 ~ok:true;
  Breaker.record b ~now:0.3 ~ok:false;
  Breaker.record b ~now:0.4 ~ok:false;
  checkb "non-consecutive failures stay closed" true
    (Breaker.state b ~now:0.4 = Breaker.Closed)

(* A breaker restored from a checkpoint (or shared across simulations) can
   see [~now] jump backwards past [opened_at].  The cooldown must re-base on
   the earlier clock instead of demanding a time the clock may never reach:
   "open for at most cooldown_s of observed time". *)
let test_breaker_backwards_clock () =
  let cfg =
    { Breaker.failure_threshold = 1; cooldown_s = 1.0; half_open_probes = 1 }
  in
  let b = Breaker.create ~config:cfg () in
  Breaker.record b ~now:100.0 ~ok:false;
  checkb "open at trip time" true (Breaker.state b ~now:100.0 = Breaker.Open);
  (* the clock jumps back below opened_at *)
  checkb "still open just after the jump" true
    (Breaker.state b ~now:0.2 = Breaker.Open);
  checkb "open shortly before the re-based cooldown" true
    (Breaker.state b ~now:1.1 = Breaker.Open);
  checkb "half-open once the re-based cooldown elapses" true
    (Breaker.state b ~now:1.3 = Breaker.Half_open);
  checkb "probe admitted" true (Breaker.allow b ~now:1.3);
  Breaker.record b ~now:1.4 ~ok:true;
  checkb "probe success closes" true (Breaker.state b ~now:1.4 = Breaker.Closed)

(* ---- heartbeat health ------------------------------------------------------ *)

let test_health_detects_death_and_recovery () =
  let sim = Desim.create () in
  let f =
    Faults.plan
      ~windows:[ { Faults.w_node = "n"; w_down = 0.42; w_up = Some 0.9 } ]
      ()
  in
  let events = ref [] in
  let h =
    Health.start sim ~faults:f ~interval:0.1 ~nodes:[ "n"; "m" ]
      ~on_event:(fun ~node ev -> events := (node, ev, Desim.now sim) :: !events)
  in
  Desim.at sim 2.0 (fun () -> Health.stop h);
  Desim.run sim;
  (match List.rev !events with
  | (n1, Health.Died, t1) :: (n2, Health.Recovered, t2) :: [] ->
      Alcotest.check Alcotest.string "died node" "n" n1;
      Alcotest.check Alcotest.string "recovered node" "n" n2;
      (* detection within one beat of the actual edge *)
      checkb "death detected within a beat" true (t1 >= 0.42 && t1 <= 0.53);
      checkb "recovery detected within a beat" true (t2 >= 0.9 && t2 <= 1.01)
  | evs ->
      Alcotest.failf "expected died+recovered, got %d events"
        (List.length evs))

let test_health_requires_positive_interval () =
  let sim = Desim.create () in
  match
    Health.start sim ~faults:Faults.none ~interval:0.0 ~nodes:[]
      ~on_event:(fun ~node:_ _ -> ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive interval must be rejected"

(* ---- lineage --------------------------------------------------------------- *)

let test_lineage_primary_first () =
  let f = Faults.plan () in
  let l = Lineage.create f in
  Lineage.record_primary l ~task:0 ~node:"a" ~now:0.0;
  Lineage.record_replica l ~task:0 ~node:"b" ~now:0.5;
  checkb "primary wins while valid" true
    (Lineage.choose l ~task:0 ~prefer:"b" ~now:1.0 = Some "a")

let test_lineage_survivor_after_crash () =
  let f =
    Faults.plan
      ~windows:[ { Faults.w_node = "a"; w_down = 1.0; w_up = Some 1.5 } ]
      ()
  in
  let l = Lineage.create f in
  Lineage.record_primary l ~task:0 ~node:"a" ~now:0.0;
  Lineage.record_replica l ~task:0 ~node:"b" ~now:0.5;
  (* during the outage the replica serves *)
  checkb "replica during outage" true
    (Lineage.choose l ~task:0 ~prefer:"b" ~now:1.2 = Some "b");
  (* after the restart the primary's memory is gone: still the replica *)
  checkb "restart wipes the primary copy" true
    (Lineage.choose l ~task:0 ~prefer:"b" ~now:2.0 = Some "b");
  checkb "not lost while the replica lives" true
    (Lineage.choose l ~task:0 ~prefer:"a" ~now:2.0 = Some "b")

let test_lineage_lost () =
  let f =
    Faults.plan ~windows:[ { Faults.w_node = "a"; w_down = 1.0; w_up = None } ]
      ()
  in
  let l = Lineage.create f in
  Lineage.record_primary l ~task:3 ~node:"a" ~now:0.0;
  checkb "not lost while alive" true
    (Lineage.choose l ~task:3 ~prefer:"b" ~now:0.5 = Some "a");
  checkb "lost when the only copy dies" true
    (Lineage.choose l ~task:3 ~prefer:"b" ~now:2.0 = None);
  checki "the lost copy is still tracked" 1 (Lineage.total_copies l)

(* Pruning at snapshot points bounds lineage memory: invalidated copies and
   excess replicas go, but tasks with no surviving copy are untouched. *)
let test_lineage_prune_bounds_memory () =
  let f =
    Faults.plan
      ~windows:[ { Faults.w_node = "dead"; w_down = 1.0; w_up = None } ]
      ()
  in
  let l = Lineage.create f in
  Lineage.record_primary l ~task:0 ~node:"a" ~now:0.0;
  Lineage.record_replica l ~task:0 ~node:"b" ~now:0.2;
  Lineage.record_replica l ~task:0 ~node:"c" ~now:0.3;
  Lineage.record_replica l ~task:0 ~node:"dead" ~now:0.4;
  Lineage.record_primary l ~task:1 ~node:"dead" ~now:0.5;
  checki "copies before prune" 5 (Lineage.total_copies l);
  let dropped = Lineage.prune l ~now:2.0 in
  (* task 0: primary + 1 replica kept, dead copy and the excess replica
     dropped; task 1 (all copies invalid) untouched *)
  checki "dropped" 2 dropped;
  checki "copies after prune" 3 (Lineage.total_copies l);
  checkb "primary still wins" true
    (Lineage.choose l ~task:0 ~prefer:"c" ~now:2.0 = Some "a");
  checkb "kept replica serves" true
    (Lineage.choose l ~task:0 ~prefer:"b" ~now:2.0 = Some "a");
  checkb "lost task still lost" true
    (Lineage.choose l ~task:1 ~prefer:"a" ~now:2.0 = None);
  (* wider cap keeps more; idempotent at the same width *)
  checki "re-prune drops nothing" 0 (Lineage.prune l ~now:2.0)

let test_lineage_prune_replica_cap () =
  let l = Lineage.create (Faults.plan ()) in
  Lineage.record_primary l ~task:7 ~node:"a" ~now:0.0;
  List.iteri
    (fun i n -> Lineage.record_replica l ~task:7 ~node:n ~now:(0.1 *. float_of_int i))
    [ "b"; "c"; "d"; "e" ];
  checki "five copies" 5 (Lineage.total_copies l);
  checki "cap at 1 replica drops 3" 3 (Lineage.prune l ~now:1.0);
  checki "two left" 2 (Lineage.total_copies l);
  checkb "primary survives" true
    (Lineage.choose l ~task:7 ~prefer:"e" ~now:1.0 = Some "a")

(* ---- executor: recovery ---------------------------------------------------- *)

let p9_without_fpgas name = Node.create ~name ~tier:Spec.Cloud Spec.power9

let two_node_cluster () =
  Cluster.create [ p9_without_fpgas "fast"; Cluster.endpoint_node "slow" ]

let single_cpu_dag flops =
  Dag.create "one"
    [ Dag.task ~id:0 ~name:"t" ~inputs:[] ~out_bytes:64
        ~impls:[ Dag.Cpu { flops; bytes = 1.0; threads = 1 } ]
        () ]

let test_executor_lineage_recompute () =
  (* t0 on [a] finishes early; [a] dies before the consumer (gated behind a
     long task on [b]) pulls its output; the lost output must be recomputed
     on a surviving node, not silently read from the dead one *)
  let d =
    Dag.create "lineage"
      [ Dag.task ~id:0 ~name:"produce" ~inputs:[] ~out_bytes:4096
          ~pinned:(Some "a")
          ~impls:[ Dag.Cpu { flops = 1e6; bytes = 1.0; threads = 1 } ]
          ();
        Dag.task ~id:1 ~name:"gate" ~inputs:[] ~out_bytes:64
          ~pinned:(Some "b")
          ~impls:[ Dag.Cpu { flops = 1e11; bytes = 1.0; threads = 1 } ]
          ();
        Dag.task ~id:2 ~name:"consume" ~inputs:[ 0; 1 ] ~out_bytes:64
          ~pinned:(Some "b")
          ~impls:[ Dag.Cpu { flops = 1e6; bytes = 1.0; threads = 1 } ]
          () ]
  in
  let c =
    Cluster.create [ p9_without_fpgas "a"; p9_without_fpgas "b" ]
  in
  let plan = Scheduler.min_load c d in
  let faults =
    Faults.plan ~windows:[ { Faults.w_node = "a"; w_down = 1.0; w_up = None } ] ()
  in
  let stats = Executor.execute ~faults c plan in
  checkb "all tasks complete" true
    (Array.for_all (fun f -> f >= 0.0) stats.Executor.task_finish);
  checki "lost output recomputed" 1 stats.Executor.recomputed;
  checki "no attempt failed" 0 stats.Executor.retries;
  (* the recomputation ran somewhere alive: 4 executions for 3 tasks *)
  checki "extra execution happened" 4
    (List.fold_left (fun acc (_, k) -> acc + k) 0 stats.Executor.per_node_tasks)

let test_executor_fpga_fallback_pays_reconfig () =
  (* an FPGA task whose planned node dies must divert to a surviving
     FPGA-capable node and pay reconfiguration there (the bitstream was only
     preloaded on the planned node), not silently land on a CPU *)
  let est =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 5.0 }
  in
  let d =
    Dag.create "hw"
      [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:1024
          ~impls:
            [ Dag.Fpga
                { bitstream = "k"; estimate = est; in_bytes = 4096;
                  out_bytes = 1024 } ]
          () ]
  in
  let c = Cluster.everest_demonstrator () in
  let plan = Scheduler.heft c d in
  let planned = plan.Scheduler.assignments.(0).Scheduler.node in
  let stats =
    Executor.execute ~faults:(Faults.of_failures [ (planned, 0.0) ]) c plan
  in
  checkb "task completed" true (stats.Executor.task_finish.(0) >= 0.0);
  let ran_fpga, reconfigs =
    List.fold_left
      (fun (ran, rc) (n : Node.t) ->
        if String.equal n.Node.name planned then (ran, rc)
        else
          ( (ran || (n.Node.tasks_run > 0 && Node.has_fpga n)),
            rc + List.fold_left (fun a d -> a + d.Node.reconfigs) 0 n.Node.fpgas ))
      (false, 0) c.Cluster.nodes
  in
  checkb "diverted to a surviving FPGA node" true ran_fpga;
  checkb "fallback paid reconfiguration" true (reconfigs >= 1)

let test_executor_timeout_rescues_straggler () =
  (* planned on [fast] which is dead: the attempt lands on [slow] and blows
     the plan-relative deadline; each timeout burns one retry, and once the
     budget is gone the last attempt is left to finish *)
  let c = two_node_cluster () in
  let d = single_cpu_dag 1e9 in
  let plan = Scheduler.min_load c d in
  Alcotest.check Alcotest.string "planned on fast" "fast"
    plan.Scheduler.assignments.(0).Scheduler.node;
  let policy =
    { Policy.default with
      max_retries = 2;
      backoff = { Policy.base_s = 0.0; factor = 2.0; max_s = 0.0 };
      timeout = Some { Policy.timeout_factor = 1.5; timeout_min_s = 1e-4 } }
  in
  let faults = Faults.of_failures [ ("fast", 0.0) ] in
  let stats = Executor.execute ~faults ~policy c plan in
  checkb "completed despite timeouts" true (stats.Executor.task_finish.(0) >= 0.0);
  checki "budget-bounded timeouts" 2 stats.Executor.timeouts

let test_executor_speculation_wins () =
  (* [fast] is down just long enough that the first attempt lands on [slow];
     once [fast] restarts, the speculative duplicate launched at the
     straggler point finishes first *)
  let c = two_node_cluster () in
  let d = single_cpu_dag 1e10 in
  let plan = Scheduler.min_load c d in
  let fast = Cluster.find_node c "fast" in
  let slow = Cluster.find_node c "slow" in
  let impl = plan.Scheduler.assignments.(0).Scheduler.impl in
  let est_fast = Scheduler.exec_estimate fast impl in
  let est_slow = Scheduler.exec_estimate slow impl in
  checkb "meaningful speed gap" true (est_slow > 3.0 *. est_fast);
  let faults =
    Faults.plan
      ~windows:
        [ { Faults.w_node = "fast"; w_down = 0.0; w_up = Some (0.3 *. est_slow) } ]
      ()
  in
  let policy =
    { Policy.default with
      speculation =
        Some
          { Policy.spec_factor = 0.0; spec_min_s = 0.5 *. est_slow;
            max_speculative = 4 } }
  in
  let stats = Executor.execute ~faults ~policy c plan in
  checki "one speculative launch" 1 stats.Executor.speculative;
  checkb "speculation beat the straggler" true
    (stats.Executor.makespan < 0.95 *. est_slow)

let test_executor_transient_faults_retry () =
  let c = two_node_cluster () in
  let d = single_cpu_dag 1e9 in
  let plan = Scheduler.min_load c d in
  let faults = Faults.plan ~seed:3 ~transient_prob:0.7 () in
  let stats = Executor.execute ~faults c plan in
  checkb "completed" true (stats.Executor.task_finish.(0) >= 0.0);
  checkb "transients caused retries" true (stats.Executor.retries >= 1)

let test_executor_typed_failure () =
  let c = Cluster.create [ p9_without_fpgas "only" ] in
  let d = single_cpu_dag 1e9 in
  let plan = Scheduler.min_load c d in
  (* every attempt fails transiently often enough to exhaust a tiny budget *)
  let faults = Faults.plan ~seed:1 ~transient_prob:0.99 () in
  let policy = { Policy.default with max_retries = 1 } in
  match Executor.execute ~faults ~policy c plan with
  | exception Executor.Execution_failed { reason; partial } ->
      checkb "reason names the task" true
        (Astring.String.is_infix ~affix:"retry budget" reason);
      checkb "partial stats carried" true (partial.Executor.retries >= 1)
  | _ -> Alcotest.fail "budget exhaustion must raise Execution_failed"

let test_executor_heartbeat_rescues_early () =
  (* [fast] dies mid-run; with a heartbeat the rescue happens within one
     beat instead of waiting for the doomed completion event *)
  let c = two_node_cluster () in
  let d = single_cpu_dag 1e10 in
  let plan = Scheduler.min_load c d in
  let fast = Cluster.find_node c "fast" in
  let impl = plan.Scheduler.assignments.(0).Scheduler.impl in
  let est_fast = Scheduler.exec_estimate fast impl in
  let faults = Faults.of_failures [ ("fast", 0.5 *. est_fast) ] in
  let beat = 0.05 *. est_fast in
  let with_hb =
    Executor.execute ~faults
      ~policy:{ Policy.default with heartbeat_s = Some beat }
      c plan
  in
  let without =
    let c2 = two_node_cluster () in
    let plan2 = Scheduler.min_load c2 (single_cpu_dag 1e10) in
    Executor.execute ~faults c2 plan2
  in
  checkb "both complete" true
    (with_hb.Executor.task_finish.(0) >= 0.0
    && without.Executor.task_finish.(0) >= 0.0);
  checkb "heartbeat rescues earlier" true
    (with_hb.Executor.makespan < without.Executor.makespan)

(* ---- executor: determinism and byte-identity ------------------------------- *)

(* Golden numbers captured from the pre-resilience executor: zero-fault runs
   under the default policy must reproduce them bit for bit. *)
let test_zero_fault_goldens () =
  let d = Dag.layered ~seed:42 ~layers:4 ~width:4 ~flops:1e9 ~bytes:1e6 () in
  let _, s = Executor.run_on_demonstrator ~policy:"heft-locality" d in
  checkf "layered makespan" 0.24896767676767681 s.Executor.makespan;
  checki "layered bytes" 8_000_000 s.Executor.bytes_moved;
  checki "layered transfers" 8 s.Executor.transfers;
  checkf "layered energy" 56.650294949494963 s.Executor.energy_j;
  checki "layered retries" 0 s.Executor.retries;
  let fj =
    Dag.fork_join ~width:8 ~worker_flops:1e9 ~worker_bytes:1e6
      ~chunk_bytes:65536 ()
  in
  let _, s = Executor.run_on_demonstrator ~policy:"min-load" fj in
  checkf "fork-join makespan" 0.56189084872727302 s.Executor.makespan;
  checki "fork-join bytes" 4_718_592 s.Executor.bytes_moved;
  checki "fork-join transfers" 16 s.Executor.transfers;
  checkf "fork-join energy" 122.92664667814148 s.Executor.energy_j

let demonstrator_nodes =
  [ "p9"; "cf0"; "cf1"; "cf2"; "cf3"; "edge0"; "edge1"; "ep0"; "ep1"; "ep2";
    "ep3" ]

let chaos_run ~seed d =
  let faults =
    Faults.random_plan ~seed ~fault_rate:0.2 ~mean_downtime:0.2
      ~transient_prob:0.05 ~nodes:demonstrator_nodes ~horizon:1.0 ()
  in
  Executor.run_on_demonstrator ~policy:"heft-locality" ~faults
    ~exec_policy:Policy.chaos d

let qcheck_seed_determinism =
  QCheck.Test.make ~count:12 ~name:"same fault seed, bit-identical stats"
    QCheck.(pair small_nat (int_bound 1000))
    (fun (shape, seed) ->
      let d =
        Dag.layered ~seed:(shape + 1) ~layers:3 ~width:3 ~flops:5e8 ~bytes:1e5
          ()
      in
      let run () =
        match chaos_run ~seed d with
        | _, s ->
            Ok
              ( s.Executor.makespan, s.Executor.bytes_moved,
                s.Executor.retries, s.Executor.timeouts,
                s.Executor.speculative, s.Executor.recomputed,
                s.Executor.energy_j )
        | exception Executor.Execution_failed { reason; _ } -> Error reason
      in
      run () = run ())

(* Spans whose final status is [status], and speculative backup launches,
   which carry the attribute from birth (their final status depends on
   who wins the race). *)
let count_status status spans =
  List.length (List.filter (fun sp -> Trace.attr_is sp "status" status) spans)

let speculative spans =
  List.length
    (List.filter (fun sp -> Trace.attr sp "speculative" = Some (Trace.B true)) spans)

let qcheck_trace_reconciles =
  QCheck.Test.make ~count:10 ~name:"stats reconcile with the span log"
    QCheck.(int_bound 1000)
    (fun seed ->
      let d =
        Dag.fork_join ~width:6 ~worker_flops:5e8 ~worker_bytes:1e5
          ~chunk_bytes:4096 ()
      in
      let faults =
        Faults.random_plan ~seed ~fault_rate:0.2 ~mean_downtime:0.2
          ~transient_prob:0.05 ~nodes:demonstrator_nodes ~horizon:1.0 ()
      in
      match
        Executor.run_on_demonstrator ~policy:"min-load" ~faults
          ~exec_policy:Policy.chaos ~tracer:`Sim d
      with
      | _, s ->
          s.Executor.retries = Executor.trace_retries s.Executor.span_log
          && s.Executor.timeouts = count_status "timeout" s.Executor.span_log
          && s.Executor.speculative = speculative s.Executor.span_log
          && s.Executor.recomputed = count_status "recomputed" s.Executor.span_log
          && Dag.size d = Executor.trace_tasks_completed s.Executor.span_log
          && s.Executor.bytes_moved
             = Executor.trace_bytes_moved s.Executor.span_log
      | exception Executor.Execution_failed _ -> QCheck.assume_fail ())

let qcheck_zero_fault_identity =
  QCheck.Test.make ~count:10 ~name:"zero-fault runs unchanged by the plumbing"
    QCheck.(int_bound 1000)
    (fun seed ->
      let d =
        Dag.layered ~seed:(seed + 1) ~layers:3 ~width:4 ~flops:1e9 ~bytes:2e5
          ()
      in
      let bare = snd (Executor.run_on_demonstrator ~policy:"heft" d) in
      let plumbed =
        snd
          (Executor.run_on_demonstrator ~policy:"heft" ~faults:Faults.none
             ~exec_policy:Policy.default d)
      in
      bare.Executor.makespan = plumbed.Executor.makespan
      && bare.Executor.bytes_moved = plumbed.Executor.bytes_moved
      && bare.Executor.transfers = plumbed.Executor.transfers
      && bare.Executor.energy_j = plumbed.Executor.energy_j
      && bare.Executor.task_finish = plumbed.Executor.task_finish)

let test_chaos_completes_at_twenty_percent () =
  (* the acceptance bar: a fixed seed and a 20% node-failure rate, and the
     example shapes still complete, twice, with identical makespans *)
  List.iter
    (fun d ->
      let _, a = chaos_run ~seed:7 d in
      let _, b = chaos_run ~seed:7 d in
      checkb "all tasks complete" true
        (Array.for_all (fun f -> f >= 0.0) a.Executor.task_finish);
      checkf "repeat run identical" a.Executor.makespan b.Executor.makespan)
    [ Dag.layered ~seed:5 ~layers:4 ~width:4 ~flops:1e9 ~bytes:1e6 ();
      Dag.fork_join ~width:8 ~worker_flops:1e9 ~worker_bytes:1e6
        ~chunk_bytes:65536 () ]

(* ---- remoting -------------------------------------------------------------- *)

let test_remoting_retry () =
  let open Everest_runtime in
  let sim = Desim.create () in
  let done_at = ref (-1.0) in
  (* first two attempts dropped, third lands *)
  Remoting.invoke
    ~fail:(fun ~attempt -> attempt <= 2)
    ~retries:3 sim Remoting.virtio_default ~calls:8 ~bytes_per_call:4096
    (fun () -> done_at := Desim.now sim);
  Desim.run sim;
  let clean = Remoting.cost Remoting.virtio_default ~calls:8 ~bytes_per_call:4096 in
  checkb "eventually delivered" true (!done_at > 0.0);
  checkb "retries cost time" true (!done_at > 2.0 *. clean)

let test_remoting_gives_up () =
  let open Everest_runtime in
  let sim = Desim.create () in
  let gave_up = ref 0 in
  Remoting.invoke
    ~fail:(fun ~attempt:_ -> true)
    ~retries:2
    ~on_give_up:(fun ~attempts -> gave_up := attempts)
    sim Remoting.virtio_default ~calls:1 ~bytes_per_call:64
    (fun () -> Alcotest.fail "must not deliver");
  Desim.run sim;
  checki "all attempts burned" 3 !gave_up

let test_remoting_raises_by_default () =
  let open Everest_runtime in
  let sim = Desim.create () in
  Remoting.invoke
    ~fail:(fun ~attempt:_ -> true)
    ~retries:1 sim Remoting.virtio_default ~calls:1 ~bytes_per_call:64
    (fun () -> ());
  match Desim.run sim with
  | exception Remoting.Call_failed { attempts } -> checki "attempts" 2 attempts
  | _ -> Alcotest.fail "exhausted call must raise"

let () =
  Alcotest.run "everest_resilience"
    [ ( "faults",
        [ Alcotest.test_case "windows" `Quick test_faults_windows;
          Alcotest.test_case "deterministic draws" `Quick
            test_faults_deterministic_draws;
          Alcotest.test_case "validation" `Quick test_faults_validation;
          Alcotest.test_case "failures shim" `Quick test_faults_shim ] );
      ( "policy",
        [ Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds ] );
      ( "breaker",
        [ Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "failed probe re-opens" `Quick
            test_breaker_reopen_on_failed_probe;
          Alcotest.test_case "success resets streak" `Quick
            test_breaker_success_resets_streak;
          Alcotest.test_case "backwards clock" `Quick
            test_breaker_backwards_clock ] );
      ( "health",
        [ Alcotest.test_case "death and recovery" `Quick
            test_health_detects_death_and_recovery;
          Alcotest.test_case "interval validation" `Quick
            test_health_requires_positive_interval ] );
      ( "lineage",
        [ Alcotest.test_case "primary first" `Quick test_lineage_primary_first;
          Alcotest.test_case "survivor after crash" `Quick
            test_lineage_survivor_after_crash;
          Alcotest.test_case "lost output" `Quick test_lineage_lost;
          Alcotest.test_case "prune bounds memory" `Quick
            test_lineage_prune_bounds_memory;
          Alcotest.test_case "prune replica cap" `Quick
            test_lineage_prune_replica_cap ] );
      ( "executor-recovery",
        [ Alcotest.test_case "lineage recompute" `Quick
            test_executor_lineage_recompute;
          Alcotest.test_case "fpga fallback reconfigures" `Quick
            test_executor_fpga_fallback_pays_reconfig;
          Alcotest.test_case "timeout rescue" `Quick
            test_executor_timeout_rescues_straggler;
          Alcotest.test_case "speculation wins" `Quick
            test_executor_speculation_wins;
          Alcotest.test_case "transient retries" `Quick
            test_executor_transient_faults_retry;
          Alcotest.test_case "typed failure" `Quick test_executor_typed_failure;
          Alcotest.test_case "heartbeat rescue" `Quick
            test_executor_heartbeat_rescues_early ] );
      ( "determinism",
        [ Alcotest.test_case "zero-fault goldens" `Quick
            test_zero_fault_goldens;
          Alcotest.test_case "chaos at 20%" `Quick
            test_chaos_completes_at_twenty_percent;
          QCheck_alcotest.to_alcotest qcheck_seed_determinism;
          QCheck_alcotest.to_alcotest qcheck_trace_reconciles;
          QCheck_alcotest.to_alcotest qcheck_zero_fault_identity ] );
      ( "remoting",
        [ Alcotest.test_case "retry" `Quick test_remoting_retry;
          Alcotest.test_case "gives up" `Quick test_remoting_gives_up;
          Alcotest.test_case "raises by default" `Quick
            test_remoting_raises_by_default ] ) ]
