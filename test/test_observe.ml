(* Tests for everest_observe: critical-path extraction is exact on
   hand-built span logs and tiles [0, makespan] on real executor runs,
   utilization reconciles with the span log, the analyzer matches its list
   oracle on traced chaos runs, SLOs evaluate and burn-rate alerts flip
   over simulated time, the online monitor matches its list oracle bit
   for bit at constant allocation per call, reports round-trip through
   JSON, and the regression differ flags only genuine regressions. *)

open Everest_observe
module Trace = Everest_telemetry.Trace
module Clock = Everest_telemetry.Clock
module Metrics = Everest_telemetry.Metrics
module Wf = Everest_workflow
module Rt = Everest_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* A traced run of a layered stress DAG (the CLI drill's workload). *)
let traced_run ?(seed = 7) () =
  let dag = Wf.Dag.layered ~seed ~layers:4 ~width:3 ~flops:2e9 ~bytes:1e6 () in
  let registry = Metrics.create_registry () in
  let _, stats =
    Wf.Executor.run_on_demonstrator ~policy:"heft-locality" ~tracer:`Sim
      ~registry dag
  in
  (dag, stats)

(* ---- critical path -------------------------------------------------------------- *)

(* Hand-built span logs: a tracer on a settable clock, so attempts can be
   started in start order and finished at any later time. *)
let hand_tracer () =
  let now = ref 0.0 in
  (Trace.create ~clock:(fun () -> !now) (), now)

(* One ok attempt of [task] on [track], over [start, stop]. *)
let attempt (tr, now) ~task ~track name start stop =
  now := start;
  let s =
    Trace.start tr ~track
      ~attrs:[ ("task", Trace.I task); ("node", Trace.S "n") ]
      ("task:" ^ name)
  in
  now := stop;
  Trace.finish tr ~attrs:[ ("status", Trace.S "ok") ] s;
  s

let critical_path (tr, _) ~finish ~names ~deps =
  fst
    (Analyzer.analyze
       ~horizon:(Array.fold_left Float.max 0.0 finish)
       ~finish
       ~deps:(fun i -> deps.(i))
       ~name:(fun i -> names.(i))
       ~node:(fun _ -> "n") ~waits:[] tr)

let test_critical_path_exact_chain () =
  (* a -> b -> c back-to-back: the path is the whole run, all self time *)
  let h = hand_tracer () in
  ignore (attempt h ~task:0 ~track:1 "a" 0.0 1.0);
  ignore (attempt h ~task:1 ~track:1 "b" 1.0 2.5);
  ignore (attempt h ~task:2 ~track:1 "c" 2.5 3.0);
  match
    critical_path h ~finish:[| 1.0; 2.5; 3.0 |] ~names:[| "a"; "b"; "c" |]
      ~deps:[| []; [ 0 ]; [ 1 ] |]
  with
  | None -> Alcotest.fail "no path"
  | Some cp ->
      checki "three steps" 3 (List.length cp.Critical_path.steps);
      checkf "duration = makespan" 3.0 cp.Critical_path.duration_s;
      checkf "makespan" 3.0 cp.Critical_path.makespan_s;
      checkf "all self" 3.0 cp.Critical_path.work_s;
      checkf "no wait" 0.0 cp.Critical_path.wait_s;
      checkb "invariant" true (Critical_path.check cp);
      checkb "names in order" true
        (List.map
           (fun (s : Critical_path.step) -> s.Critical_path.st_name)
           cp.Critical_path.steps
        = [ "a"; "b"; "c" ])

let test_critical_path_attributes_wait () =
  (* b's attempt spans 2s after a but pulls its input for 1.5s of them:
     that pull reads as wait, and a fast sibling must not hijack the
     path *)
  let ((tr, now) as h) = hand_tracer () in
  ignore (attempt h ~task:0 ~track:1 "a" 0.0 1.0);
  ignore (attempt h ~task:1 ~track:2 "sibling" 0.0 0.4);
  let b = attempt h ~task:2 ~track:1 "b" 1.0 3.0 in
  now := 1.0;
  let pull = Trace.start tr ~parent:b.Trace.id ~track:1 "xfer:a->b" in
  now := 2.5;
  Trace.finish tr pull;
  match
    critical_path h ~finish:[| 1.0; 0.4; 3.0 |]
      ~names:[| "a"; "sibling"; "b" |] ~deps:[| []; []; [ 0; 1 ] |]
  with
  | None -> Alcotest.fail "no path"
  | Some cp ->
      checkb "path is a -> b" true
        (List.map
           (fun (s : Critical_path.step) -> s.Critical_path.st_name)
           cp.Critical_path.steps
        = [ "a"; "b" ]);
      checkf "duration" 3.0 cp.Critical_path.duration_s;
      checkf "self" 1.5 cp.Critical_path.work_s;
      checkf "wait" 1.5 cp.Critical_path.wait_s;
      let b = List.nth cp.Critical_path.steps 1 in
      checkf "b self" 0.5 b.Critical_path.st_self_s;
      checkf "b wait" 1.5 b.Critical_path.st_wait_s;
      (* the sibling is off-path but still counts toward total work *)
      checkf "total work" 1.9 cp.Critical_path.total_work_s;
      checkb "bottleneck is b" true
        ((List.hd (Critical_path.bottlenecks ~k:1 cp)).Critical_path.st_name
        = "b")

let prop_cp_duration_equals_makespan =
  (* on any completed executor run the extracted path must tile exactly
     the interval [0, makespan]: roots launch at t=0 and consumers launch
     the moment their last input lands *)
  QCheck.Test.make ~count:8 ~name:"critical path duration = makespan"
    QCheck.(pair (int_range 1 1000) (pair (int_range 2 4) (int_range 2 4)))
    (fun (seed, (layers, width)) ->
      let dag = Wf.Dag.layered ~seed ~layers ~width ~flops:1e9 ~bytes:5e5 () in
      let registry = Metrics.create_registry () in
      let _, stats =
        Wf.Executor.run_on_demonstrator ~policy:"min-load" ~tracer:`Sim
          ~registry dag
      in
      let report = Lazy.force stats.Wf.Executor.report in
      match report.Report.r_cp with
      | None -> false
      | Some cp ->
          Critical_path.check cp
          && Float.abs
               (cp.Critical_path.duration_s -. stats.Wf.Executor.makespan)
             <= 1e-9 *. Float.max 1.0 stats.Wf.Executor.makespan
          && cp.Critical_path.work_s <= cp.Critical_path.total_work_s +. 1e-9)

(* ---- utilization ---------------------------------------------------------------- *)

let test_utilization_reconciles () =
  let _, stats = traced_run () in
  let report = Lazy.force stats.Wf.Executor.report in
  let u =
    match report.Report.r_util with
    | Some u -> u
    | None -> Alcotest.fail "no utilization"
  in
  checkb "consistency check" true (Utilization.check u);
  checkf "horizon is the makespan" stats.Wf.Executor.makespan
    u.Utilization.u_horizon_s;
  (* per node, the span-time sum must match a direct fold over the raw
     log, and merged busy time can never exceed it *)
  List.iter
    (fun (n : Utilization.node_util) ->
      let raw =
        List.fold_left
          (fun acc (s : Trace.span) ->
            let is_task =
              String.length s.Trace.name >= 5
              && String.sub s.Trace.name 0 5 = "task:"
            in
            if is_task then acc +. Trace.duration s else acc)
          0.0
          (List.filter
             (fun (s : Trace.span) -> s.Trace.track = n.Utilization.nu_track)
             stats.Wf.Executor.span_log)
      in
      Alcotest.check (Alcotest.float 1e-9)
        ("span_s matches the log on " ^ n.Utilization.nu_node)
        raw n.Utilization.nu_span_s;
      checkb "busy <= raw span time" true
        (n.Utilization.nu_busy_s <= raw +. 1e-9))
    u.Utilization.u_nodes;
  (* every first completion lands on exactly one node's counter *)
  let tasks =
    List.fold_left
      (fun acc (n : Utilization.node_util) -> acc + n.Utilization.nu_tasks)
      0 u.Utilization.u_nodes
  in
  checki "ok attempts partition across nodes"
    (Wf.Executor.trace_tasks_completed stats.Wf.Executor.span_log)
    tasks

let test_utilization_gaps () =
  (* one track, two spans with a 2s hole: busy 2, idle 3 (incl. the tail) *)
  let m = Clock.manual () in
  let tr = Trace.create ~clock:(Clock.of_manual m) () in
  Trace.name_track tr 1 "n0";
  let s1 = Trace.start tr ~track:1 "task:a" in
  Clock.advance m 1.0;
  Trace.finish tr s1;
  Clock.advance m 2.0;
  let s2 = Trace.start tr ~track:1 "task:b" in
  Clock.advance m 1.0;
  Trace.finish tr s2;
  match
    Analyzer.analyze ~horizon:5.0 ~finish:[||] ~deps:(fun _ -> [])
      ~name:string_of_int ~node:(fun _ -> "n0") ~waits:[] tr
  with
  | None, Some ({ Utilization.u_nodes = [ n ]; _ } as u) ->
      checkf "busy" 2.0 n.Utilization.nu_busy_s;
      checkf "idle" 3.0 n.Utilization.nu_idle_s;
      checkb "check" true (Utilization.check u);
      (* largest gap first: the 2s hole, then the 1s tail *)
      (match n.Utilization.nu_gaps with
      | (g1s, g1l) :: (g2s, g2l) :: _ ->
          checkf "hole start" 1.0 g1s;
          checkf "hole length" 2.0 g1l;
          checkf "tail start" 4.0 g2s;
          checkf "tail length" 1.0 g2l
      | _ -> Alcotest.fail "expected two gaps");
      checkb "worst gap" true
        (Utilization.worst_gap u = Some ("n0", 1.0, 2.0))
  | _ -> Alcotest.fail "expected one node and no critical path"

(* ---- analytics reference -------------------------------------------------------- *)

module Plat = Everest_platform
module Faults = Everest_resilience.Faults
module Policy = Everest_resilience.Policy

(* One traced chaos run on the demonstrator: a layered, fork-join or
   ensemble DAG under a random plan of node deaths and transient failures,
   recovered by [Policy.chaos] (retries, timeouts, speculation,
   recomputation).  A run that exhausts recovery still yields its partial
   stats and report. *)
let chaos_traced_run (family, (dag_seed, fault_seed)) =
  let dag =
    match family with
    | 0 ->
        Wf.Dag.layered ~seed:dag_seed ~layers:(2 + (dag_seed mod 3))
          ~width:(2 + (dag_seed mod 2)) ~flops:1e9 ~bytes:2e5 ()
    | 1 ->
        Wf.Dag.fork_join ~width:(3 + (dag_seed mod 4)) ~worker_flops:8e8
          ~worker_bytes:1e5 ~chunk_bytes:4096 ()
    | _ ->
        Wf.Dag.ensemble ~seed:dag_seed ~members:(2 + (dag_seed mod 3))
          ~stages:(2 + (dag_seed mod 2)) ~stage_flops:6e8 ~stage_bytes:1e5 ()
  in
  let c = Plat.Cluster.everest_demonstrator () in
  let tracer =
    Trace.create ~clock:(fun () -> Plat.Desim.now c.Plat.Cluster.sim) ()
  in
  let faults =
    Faults.random_plan ~seed:fault_seed ~fault_rate:0.3 ~mean_downtime:0.15
      ~transient_prob:0.1 ~fpga_transient_prob:0.1
      ~nodes:
        (List.map
           (fun (n : Plat.Node.t) -> n.Plat.Node.name)
           c.Plat.Cluster.nodes)
      ~horizon:0.6 ()
  in
  let scheduler = if dag_seed mod 2 = 0 then "heft-locality" else "min-load" in
  let plan = (Option.get (Wf.Scheduler.by_name scheduler)) c dag in
  let stats =
    try
      Wf.Executor.execute ~faults ~policy:Policy.chaos ~tracer
        ~registry:(Metrics.create_registry ()) c plan
    with Wf.Executor.Execution_failed { partial; _ } -> partial
  in
  (dag, plan, c, tracer, stats)

(* The report's critical path and utilization, and the oracle's, as JSON. *)
let analytics_pair (dag, plan, c, tracer, stats) =
  let report = Lazy.force stats.Wf.Executor.report in
  let waits =
    List.map
      (fun (n : Plat.Node.t) ->
        let w = Plat.Desim.total_wait_s in
        ( n.Plat.Node.name,
          w n.Plat.Node.cores
          +. List.fold_left
               (fun acc (f : Plat.Node.fpga_dev) -> acc +. w f.Plat.Node.slots)
               0.0 n.Plat.Node.fpgas ))
      c.Plat.Cluster.nodes
  in
  let cp, util =
    Analytics_reference.analyze ~horizon:stats.Wf.Executor.makespan
      ~finish:stats.Wf.Executor.task_finish
      ~deps:(fun i -> dag.Wf.Dag.tasks.(i).Wf.Dag.inputs)
      ~name:(fun i -> dag.Wf.Dag.tasks.(i).Wf.Dag.name)
      ~node:(fun i -> plan.Wf.Scheduler.assignments.(i).Wf.Scheduler.node)
      ~waits ~track_names:(Trace.named_tracks tracer) (Trace.spans tracer)
  in
  let js f = Option.map (fun x -> Json.to_string (f x)) in
  ( (js Critical_path.to_json report.Report.r_cp,
     js Utilization.to_json report.Report.r_util),
    (js Critical_path.to_json cp, js Utilization.to_json util) )

let prop_analytics_match_reference =
  QCheck.Test.make ~count:200
    ~name:"report analytics = list oracle on traced chaos runs"
    QCheck.(pair (int_bound 2) (pair (int_bound 1000) (int_bound 100_000)))
    (fun case ->
      let got, want = analytics_pair (chaos_traced_run case) in
      got = want)

(* The property's generator reaches every recovery path, and the oracle
   agrees on each of those runs too. *)
let test_reference_covers_recovery () =
  let seen = Array.make 4 false in
  for k = 0 to 59 do
    let ((_, _, _, _, stats) as run) =
      chaos_traced_run (k mod 3, (k, 7919 * k))
    in
    let got, want = analytics_pair run in
    checkb (Printf.sprintf "run %d agrees" k) true (got = want);
    List.iteri
      (fun i n -> if n > 0 then seen.(i) <- true)
      [ stats.Wf.Executor.retries; stats.Wf.Executor.timeouts;
        stats.Wf.Executor.speculative; stats.Wf.Executor.recomputed ]
  done;
  List.iteri
    (fun i what -> checkb what true seen.(i))
    [ "some run retries"; "some run times out"; "some run speculates";
      "some run recomputes" ]

(* ---- slo ------------------------------------------------------------------------ *)

let outcome t ok lat = { Slo.o_t_s = t; o_ok = ok; o_latency_s = lat }

let test_slo_evaluate () =
  (* 5 of 100 fail -> availability 0.95, half the 0.1 budget burnt *)
  let outcomes =
    List.init 100 (fun i ->
        outcome (float_of_int i *. 0.01) (i mod 20 <> 0) 0.01)
  in
  let r = Slo.evaluate (Slo.availability "a" 0.9) outcomes in
  checkf "attained" 0.95 r.Slo.attained;
  checkb "met at 0.9" true r.Slo.met;
  checkf "budget used" 0.5 r.Slo.budget_used;
  let r99 = Slo.evaluate (Slo.availability "a" 0.99) outcomes in
  checkb "violated at 0.99" false r99.Slo.met;
  checkb "budget exhausted" true (r99.Slo.budget_used > 1.0);
  (* latency quantile over the ok requests *)
  let lat = Slo.evaluate (Slo.latency "l" ~q:0.5 ~limit_s:0.02) outcomes in
  checkf "latency attained" 0.01 lat.Slo.attained;
  checkb "latency met" true lat.Slo.met;
  let tight = Slo.evaluate (Slo.latency "l" ~q:0.5 ~limit_s:0.005) outcomes in
  checkb "latency violated below p50" false tight.Slo.met

let test_slo_burn_rate_flips () =
  let alert =
    { Slo.fast_window_s = 1.0; slow_window_s = 10.0; burn_threshold = 2.0 }
  in
  let m = Slo.monitor ~alert (Slo.availability "avail" 0.9) in
  (* healthy traffic: no alert *)
  for i = 0 to 49 do
    Slo.observe m ~now:(float_of_int i *. 0.1) ~ok:true ()
  done;
  checkb "healthy: not firing" false (Slo.firing m);
  checki "no alerts yet" 0 (Slo.alerts m);
  (* sustained outage: every request fails -> both windows burn hot *)
  for i = 50 to 149 do
    Slo.observe m ~now:(float_of_int i *. 0.1) ~ok:false ()
  done;
  checkb "outage: firing" true (Slo.firing m);
  checki "one rising edge" 1 (Slo.alerts m);
  let fast, slow = Slo.burn_rates m ~now:14.9 in
  checkb "fast window burns >= threshold" true (fast >= 2.0);
  checkb "slow window burns >= threshold" true (slow >= 2.0);
  (* recovery: the fast window clears first and the alert stops firing *)
  for i = 150 to 400 do
    Slo.observe m ~now:(float_of_int i *. 0.1) ~ok:true ()
  done;
  checkb "recovered: not firing" false (Slo.firing m);
  checki "still exactly one alert" 1 (Slo.alerts m);
  let snap = Slo.snapshot m in
  checki "observed everything" 401 snap.Slo.total;
  checki "bad counted" 100 snap.Slo.bad

let test_orchestrator_slo_wiring () =
  let registry = Metrics.create_registry () in
  let cluster =
    Everest_platform.Cluster.create [ Everest_platform.Cluster.power9_node "p9" ]
  in
  let orch = Rt.Orchestrator.create ~registry cluster ~host_name:"p9" in
  let _ =
    Rt.Orchestrator.deploy orch ~kname:"k"
      ~impls:
        [ ("sw", Rt.Orchestrator.Sw { flops = 5e8; bytes = 1e5; threads = 2 }) ]
      ~knowledge:
        (Everest_autotune.Knowledge.create "k"
           [ { Everest_autotune.Knowledge.variant = "sw"; features = [];
               metrics = [ ("time_s", 0.01) ] } ])
      ~goal:
        (Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let m = Slo.monitor (Slo.availability "avail" 0.9) in
  let n = 20 in
  let log =
    Rt.Orchestrator.serve orch ~kernel:"k" ~n
      ~policy:(Rt.Orchestrator.Fixed "sw")
      ~fail:(fun ~req ~variant:_ ~attempt:_ -> req mod 2 = 0)
      ~max_attempts:1 ~slos:[ m ] ()
  in
  checki "monitor saw every request" n (Slo.observed m);
  (* completion times come off the simulated clock, monotone over the log *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Rt.Orchestrator.t_done <= b.Rt.Orchestrator.t_done && monotone rest
    | _ -> true
  in
  checkb "t_done monotone" true (monotone log);
  let snap = Slo.snapshot m in
  checkb "violated at 50% availability" false snap.Slo.met;
  (* the verdict gauges are the reader's snapshot: absent until
     [publish_metrics], then labelled by monitor name *)
  let slo_labels = [ ("kernel", "k"); ("slo", "avail") ] in
  checkb "serve publishes no slo gauge" true
    (Metrics.find ~registry ~labels:slo_labels "orchestrator_slo_budget_used"
    = None);
  Rt.Orchestrator.publish_metrics orch;
  (match
     Metrics.find ~registry ~labels:slo_labels "orchestrator_slo_budget_used"
   with
  | Some { Metrics.value = Metrics.Gauge g; _ } ->
      checkb "budget gauge shows exhaustion" true (!g > 1.0)
  | _ -> Alcotest.fail "slo gauge missing");
  (* batch evaluation over the request log agrees with the online monitor *)
  let batch =
    Slo.evaluate (Slo.availability "avail" 0.9)
      (Rt.Orchestrator.slo_outcomes log)
  in
  checkf "batch = online" snap.Slo.attained batch.Slo.attained

(* ---- slo monitor against the list oracle ---------------------------------------- *)

module Ref = Slo_reference
module Gen = QCheck.Gen

type step =
  | Observe of { dt : float; ok : bool; latency_s : float }
  | Query of float  (* burn rates at this offset from the last observe *)
  | Restore  (* export both monitors, import into fresh ones *)

(* Dyadic steps and windows put events exactly on window edges; 0.05 and
   0.3 add times that round. *)
let gen_alert =
  let window = Gen.oneofl [ 0.0; 0.05; 0.0625; 0.125; 0.25; 0.5; 1.0 ] in
  Gen.map3
    (fun fast_window_s slow_window_s burn_threshold ->
      { Slo.fast_window_s; slow_window_s; burn_threshold })
    window window
    (Gen.oneofl [ 0.0; 0.5; 1.0; 2.0; 10.0 ])

let gen_spec =
  Gen.oneofl
    [ Slo.availability "avail" 0.9; Slo.availability "coin" 0.5;
      Slo.latency "p90" ~q:0.9 ~limit_s:0.05 ]

let gen_step =
  Gen.frequency
    [ ( 6,
        Gen.map3
          (fun dt ok latency_s -> Observe { dt; ok; latency_s })
          (Gen.oneofl [ 0.0; 0.0; 0.015625; 0.03125; 0.0625; 0.125; 0.05; 0.3; 1.5 ])
          (Gen.frequency [ (3, Gen.return true); (1, Gen.return false) ])
          (* below, exactly at and above the latency limit *)
          (Gen.oneofl [ 0.01; 0.05; 0.2 ]) );
      ( 2,
        Gen.map
          (fun d -> Query d)
          (Gen.oneofl [ 0.0; 0.015625; 0.05; 0.5; -0.015625; -0.05; -0.25; -2.0 ]) );
      (1, Gen.return Restore) ]

let print_script (alert, spec, steps) =
  Printf.sprintf "alert fast=%g slow=%g threshold=%g, %s, steps: %s"
    alert.Slo.fast_window_s alert.Slo.slow_window_s alert.Slo.burn_threshold
    spec.Slo.slo_name
    (String.concat "; "
       (List.map
          (function
            | Observe { dt; ok; latency_s } ->
                Printf.sprintf "observe +%g %s %g" dt (if ok then "ok" else "bad")
                  latency_s
            | Query d -> Printf.sprintf "query %+g" d
            | Restore -> "restore")
          steps))

let bits = Int64.bits_of_float

let result_bits (r : Slo.result) =
  ( (r.Slo.res_name, r.Slo.res_kind, bits r.Slo.attained, bits r.Slo.target),
    (r.Slo.met, bits r.Slo.budget, bits r.Slo.budget_used, r.Slo.total, r.Slo.bad) )

let state_bits (s : Slo.monitor_state) =
  ( List.map (fun (t, bad) -> (bits t, bad)) s.Slo.ms_events,
    (s.Slo.ms_total, s.Slo.ms_bad, bits s.Slo.ms_last_t, s.Slo.ms_firing, s.Slo.ms_alerts) )

let agree m r ~now =
  let fast, slow = Slo.burn_rates m ~now and rfast, rslow = Ref.burn_rates r ~now in
  bits fast = bits rfast
  && bits slow = bits rslow
  && Slo.firing m = Ref.firing r
  && Slo.alerts m = Ref.alerts r
  && Slo.observed m = Ref.observed r
  && result_bits (Slo.snapshot m) = result_bits (Ref.snapshot r)
  && state_bits (Slo.monitor_export m) = state_bits (Ref.monitor_export r)

let prop_monitor_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"slo monitor = list oracle, bit for bit"
    (QCheck.make ~print:print_script
       Gen.(triple gen_alert gen_spec (list_size (int_range 0 150) gen_step)))
    (fun (alert, spec, steps) ->
      let rec run m r now = function
        | [] -> true
        | Observe { dt; ok; latency_s } :: rest ->
            let now = now +. dt in
            Slo.observe m ~now ~latency_s ~ok ();
            Ref.observe r ~now ~latency_s ~ok ();
            agree m r ~now && run m r now rest
        | Query d :: rest -> agree m r ~now:(now +. d) && run m r now rest
        | Restore :: rest ->
            let m' = Slo.monitor ~alert spec and r' = Ref.monitor ~alert spec in
            Slo.monitor_import m' (Slo.monitor_export m);
            Ref.monitor_import r' (Ref.monitor_export r);
            agree m' r' ~now && run m' r' now rest
      in
      run (Slo.monitor ~alert spec) (Ref.monitor ~alert spec) 0.0 steps)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | () -> false

let test_slo_time_runs_backwards () =
  let alert =
    { Slo.fast_window_s = 0.0; slow_window_s = 0.0; burn_threshold = 2.0 }
  in
  let m = Slo.monitor ~alert (Slo.availability "avail" 0.9) in
  Slo.observe m ~now:1.0 ~ok:true ();
  Slo.observe m ~now:1.0 ~ok:false ();
  checkb "observe before the newest event" true
    (raises_invalid (fun () -> Slo.observe m ~now:0.5 ~ok:true ()));
  checki "the refused outcome is not counted" 2 (Slo.observed m);
  let state = Slo.monitor_export m in
  let oldest_first =
    { state with Slo.ms_events = [ (0.5, false); (1.0, true) ] }
  in
  checkb "import of oldest-first events" true
    (raises_invalid (fun () -> Slo.monitor_import m oldest_first));
  checkb "refused import leaves the monitor" true
    (state_bits (Slo.monitor_export m) = state_bits state)

(* Allocation per call stays constant as the window grows 10×: an
   O(window) fold per call would allocate in proportion to the 100 or
   1000 events each window holds. *)
let test_slo_alloc_is_constant () =
  let words_per_call ~window_s =
    let alert =
      { Slo.fast_window_s = window_s /. 10.0; slow_window_s = window_s;
        burn_threshold = 2.0 }
    in
    let m = Slo.monitor ~alert (Slo.availability "avail" 0.99) in
    let n = 100_000 in
    let before = Gc.minor_words () in
    for i = 1 to n do
      let now = float_of_int i *. 1e-3 in
      Slo.observe m ~now ~ok:(i mod 7 <> 0) ();
      ignore (Slo.burn_rates m ~now)
    done;
    (Gc.minor_words () -. before) /. float_of_int (2 * n)
  in
  let small = words_per_call ~window_s:0.1 in
  let large = words_per_call ~window_s:1.0 in
  checkb (Printf.sprintf "%.1f words per call (100-event window)" small) true
    (small < 24.0);
  checkb (Printf.sprintf "%.1f words per call (1000-event window)" large) true
    (large <= small +. 0.5)

(* ---- report + regress ----------------------------------------------------------- *)

let test_report_roundtrip () =
  let _, stats = traced_run () in
  let report = Lazy.force stats.Wf.Executor.report in
  let js = Json.to_string ~pretty:true (Report.to_json report) in
  (* what `everest_cli observe --diff` does with a written report *)
  let back = Json.parse js in
  checkb "round-trip preserves the report" true
    (Json.to_string back = Json.to_string (Report.to_json report));
  (* and therefore the self-diff is empty *)
  let changes = Regress.diff ~before:(Report.to_json report) ~after:back () in
  checki "self-diff clean" 0 (List.length changes)

let test_untraced_report_is_partial () =
  let dag = Wf.Dag.layered ~seed:3 ~layers:3 ~width:2 ~flops:1e9 ~bytes:1e5 () in
  let registry = Metrics.create_registry () in
  let _, stats =
    Wf.Executor.run_on_demonstrator ~policy:"min-load" ~registry dag
  in
  checkb "no spans without a tracer" true (stats.Wf.Executor.span_log = []);
  let report = Lazy.force stats.Wf.Executor.report in
  checkb "no critical path without a trace" true (report.Report.r_cp = None);
  checkb "no utilization without a trace" true (report.Report.r_util = None);
  checki "tasks still counted" (Wf.Dag.size dag) report.Report.r_tasks_done;
  checkb "quantiles from the registry" true (report.Report.r_quantiles <> []);
  checkb "completion slo met" true
    (List.exists
       (fun (r : Slo.result) -> r.Slo.res_kind = "completion" && r.Slo.met)
       report.Report.r_slos)

let test_json_number_roundtrip () =
  (* %.17g printing must re-parse to the identical float, or the CI
     self-diff job breaks *)
  let xs = [ 4.3530518896161894; 1e-9; 0.1; 3.0; 1.0 /. 3.0; 1e15; 6.02e23 ] in
  List.iter
    (fun x ->
      match Json.parse (Json.to_string (Json.Num x)) with
      | Json.Num y ->
          Alcotest.check (Alcotest.float 0.0)
            (Printf.sprintf "roundtrip %.17g" x)
            x y
      | _ -> Alcotest.fail "expected a number")
    xs

let test_regress_flags_regressions () =
  let _, stats = traced_run () in
  let report = Lazy.force stats.Wf.Executor.report in
  let before = Report.to_json report in
  let perturb factor = function
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match v with
               | Json.Num x when k = "makespan_s" -> (k, Json.Num (x *. factor))
               | _ -> (k, v))
             kvs)
    | j -> j
  in
  (* +50% makespan is a regression *)
  let worse = Regress.diff ~before ~after:(perturb 1.5 before) () in
  checkb "slower makespan flagged" true
    (List.exists
       (fun (c : Regress.change) ->
         c.Regress.c_path = "makespan_s" && c.Regress.c_regression)
       worse);
  (* -50% is a change, not a regression *)
  let better = Regress.diff ~before ~after:(perturb 0.5 before) () in
  checkb "faster makespan is a change" true
    (List.exists
       (fun (c : Regress.change) -> c.Regress.c_path = "makespan_s")
       better);
  checkb "faster makespan not a regression" true
    (not
       (List.exists
          (fun (c : Regress.change) ->
            c.Regress.c_path = "makespan_s" && c.Regress.c_regression)
          better));
  (* within tolerance: silent *)
  let noise =
    Regress.diff ~tolerance:0.05 ~before ~after:(perturb 1.01 before) ()
  in
  checkb "1% within 5% tolerance" true
    (not
       (List.exists
          (fun (c : Regress.change) -> c.Regress.c_path = "makespan_s")
          noise));
  (* an SLO flipping met -> unmet is always a regression *)
  let flip_met = function
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "slos", Json.Arr slos ->
                   ( k,
                     Json.Arr
                       (List.map
                          (function
                            | Json.Obj slo ->
                                Json.Obj
                                  (List.map
                                     (fun (sk, sv) ->
                                       if sk = "met" then (sk, Json.Bool false)
                                       else (sk, sv))
                                     slo)
                            | s -> s)
                          slos) )
               | _ -> (k, v))
             kvs)
    | j -> j
  in
  let slo_broken = Regress.diff ~before ~after:(flip_met before) () in
  checkb "met->unmet is a regression" true
    (List.exists
       (fun (c : Regress.change) ->
         c.Regress.c_regression
         && String.length c.Regress.c_path >= 4
         && String.sub c.Regress.c_path 0 4 = "slos")
       slo_broken)

let () =
  Alcotest.run "everest_observe"
    [
      ( "critical-path",
        [ Alcotest.test_case "exact on a chain" `Quick
            test_critical_path_exact_chain;
          Alcotest.test_case "wait attribution" `Quick
            test_critical_path_attributes_wait;
          QCheck_alcotest.to_alcotest prop_cp_duration_equals_makespan ] );
      ( "utilization",
        [ Alcotest.test_case "reconciles with the span log" `Quick
            test_utilization_reconciles;
          Alcotest.test_case "idle gaps" `Quick test_utilization_gaps ] );
      ( "reference",
        [ Alcotest.test_case "covers every recovery path" `Quick
            test_reference_covers_recovery;
          QCheck_alcotest.to_alcotest prop_analytics_match_reference ] );
      ( "slo",
        [ Alcotest.test_case "batch evaluation" `Quick test_slo_evaluate;
          Alcotest.test_case "burn-rate alert flips" `Quick
            test_slo_burn_rate_flips;
          Alcotest.test_case "orchestrator wiring" `Quick
            test_orchestrator_slo_wiring;
          Alcotest.test_case "time running backwards" `Quick
            test_slo_time_runs_backwards;
          Alcotest.test_case "allocation per call is constant" `Quick
            test_slo_alloc_is_constant;
          QCheck_alcotest.to_alcotest prop_monitor_matches_oracle ] );
      ( "report",
        [ Alcotest.test_case "json round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "untraced is partial" `Quick
            test_untraced_report_is_partial;
          Alcotest.test_case "number round-trip" `Quick
            test_json_number_roundtrip ] );
      ( "regress",
        [ Alcotest.test_case "flags regressions" `Quick
            test_regress_flags_regressions ] );
    ]
