(* Tests for everest_serving: seeded workload generation, admission
   control (token buckets + SLO burn gate), routing policies, batching,
   worker auto-allocation, and the end-to-end fabric — including the
   same-seed byte-identity property the serving drill and CI pin. *)

open Everest_serving
module Slo = Everest_observe.Slo
module Faults = Everest_resilience.Faults
module Metrics = Everest_telemetry.Metrics
module Orch = Everest_runtime.Orchestrator
module Store = Everest_recovery.Store

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checks = Alcotest.check Alcotest.string

(* ---- workload ------------------------------------------------------------- *)

let acme ?burst ?(rate = 200.0) () =
  Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
    ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0 ?burst
    ~features:(fun seq -> [ ("size", float_of_int (1024 + (seq mod 7))) ])
    ()

let globex () =
  Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4 ~think_s:0.05 ()

let test_workload_deterministic () =
  let gen () = Workload.generate ~seed:42 ~horizon:1.0 [ acme () ] in
  let a = gen () and b = gen () in
  checki "same length" (List.length a) (List.length b);
  List.iter2
    (fun (x : Workload.request) y ->
      checki "id" x.Workload.rq_id y.Workload.rq_id;
      checkf "arrival" x.Workload.rq_arrival_s y.Workload.rq_arrival_s)
    a b;
  let c = Workload.generate ~seed:43 ~horizon:1.0 [ acme () ] in
  checkb "different seed differs" true
    (List.map (fun r -> r.Workload.rq_arrival_s) a
    <> List.map (fun r -> r.Workload.rq_arrival_s) c)

let test_workload_shape () =
  let reqs =
    Workload.generate ~seed:7 ~horizon:1.0
      [ acme (); acme ~rate:50.0 () ]
  in
  checkb "non-empty" true (reqs <> []);
  List.iteri
    (fun i (r : Workload.request) ->
      checki "dense ids" i r.Workload.rq_id;
      checkb "inside horizon" true
        (r.Workload.rq_arrival_s >= 0.0 && r.Workload.rq_arrival_s < 1.0))
    reqs;
  let rec sorted = function
    | (a : Workload.request) :: (b :: _ as rest) ->
        a.Workload.rq_arrival_s <= b.Workload.rq_arrival_s && sorted rest
    | _ -> true
  in
  checkb "sorted by arrival" true (sorted reqs);
  (* rough rate sanity: 200 rps for 1 s should land within a wide band *)
  let n = List.length (Workload.generate ~seed:7 ~horizon:1.0 [ acme () ]) in
  checkb "plausible count" true (n > 100 && n < 400)

let test_workload_burst_raises_rate () =
  let burst =
    { Workload.burst_factor = 8.0; mean_calm_s = 0.05; mean_burst_s = 0.05 }
  in
  let calm = Workload.generate ~seed:3 ~horizon:2.0 [ acme ~rate:50.0 () ] in
  let bursty =
    Workload.generate ~seed:3 ~horizon:2.0 [ acme ~burst ~rate:50.0 () ]
  in
  checkb "burst overlay adds arrivals" true
    (List.length bursty > List.length calm)

let test_workload_closed_users () =
  let users = Workload.closed_users ~seed:5 [ globex () ] in
  checki "population" 4 (List.length users);
  List.iter
    (fun u ->
      checks "tenant" "globex" (Workload.user_tenant u);
      checkb "staggered start" true
        (Workload.first_arrival u >= 0.0 && Workload.first_arrival u <= 0.05);
      checkb "think positive" true (Workload.next_think u > 0.0))
    users;
  checkb "open tenants contribute no users" true
    (Workload.closed_users ~seed:5 [ acme () ] = [])

let test_workload_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Workload.open_tenant ~name:"x" ~kernel:"k" ~rate_rps:0.0 ());
  expect_invalid (fun () ->
      Workload.open_tenant ~name:"x" ~kernel:"k" ~rate_rps:1.0
        ~diurnal_amplitude:1.5 ());
  expect_invalid (fun () ->
      Workload.closed_tenant ~name:"x" ~kernel:"k" ~users:0 ~think_s:1.0 ());
  expect_invalid (fun () ->
      Workload.generate ~horizon:0.0 [ acme () ])

(* Each non-finite or degenerate number a library entry point takes is
   refused with an [Invalid_argument] naming the function and the
   parameter: unchecked, a NaN or infinite rate, amplitude or horizon
   spins the arrival loop, and the others give a wrong result. *)
let non_finite_cases =
  let tenant ?(rate = 100.0) ?(amplitude = 0.0) ?(period = 1.0) ?burst () =
    ignore
      (Workload.open_tenant ~name:"x" ~kernel:"mm" ~rate_rps:rate
         ~diurnal_amplitude:amplitude ~diurnal_period_s:period ?burst ())
  in
  let burst ?(factor = 2.0) ?(calm = 0.1) ?(hot = 0.1) () =
    tenant
      ~burst:{ Workload.burst_factor = factor; mean_calm_s = calm; mean_burst_s = hot }
      ()
  in
  let think think_s =
    ignore (Workload.closed_tenant ~name:"x" ~kernel:"mm" ~users:1 ~think_s ())
  in
  let generate horizon = ignore (Workload.generate ~horizon [ acme () ]) in
  let fabric horizon =
    ignore
      (Fabric.run ~registry:(Metrics.create_registry ())
         (Fabric.default_config ~n_shards:1)
         ~deploy:(Fabric.demo_deploy ()) ~tenants:[ globex () ] ~horizon)
  in
  let resume horizon =
    let store =
      Store.open_store ~fresh:true
        ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "everest-serving-horizon")
        ~fingerprint:"horizon" ()
    in
    Fun.protect ~finally:(fun () -> Store.close store) (fun () ->
        ignore
          (Fabric.resume ~registry:(Metrics.create_registry ())
             ~recovery:{ Fabric.rv_store = store; rv_snapshot_every_s = 0.05 }
             (Fabric.default_config ~n_shards:1)
             ~deploy:(Fabric.demo_deploy ()) ~tenants:[ globex () ] ~horizon))
  in
  let open_tenant = "Workload.open_tenant" in
  [ (open_tenant, "rate_rps", "nan", fun () -> tenant ~rate:Float.nan ());
    (open_tenant, "rate_rps", "inf", fun () -> tenant ~rate:Float.infinity ());
    (open_tenant, "diurnal_amplitude", "nan", fun () -> tenant ~amplitude:Float.nan ());
    (open_tenant, "diurnal_period_s", "nan", fun () -> tenant ~period:Float.nan ());
    (open_tenant, "diurnal_period_s", "0", fun () -> tenant ~period:0.0 ());
    (open_tenant, "diurnal_period_s", "inf", fun () -> tenant ~period:Float.infinity ());
    (open_tenant, "burst_factor", "nan", fun () -> burst ~factor:Float.nan ());
    (open_tenant, "burst_factor", "inf", fun () -> burst ~factor:Float.infinity ());
    (open_tenant, "mean_calm_s", "nan", fun () -> burst ~calm:Float.nan ());
    (open_tenant, "mean_calm_s", "inf", fun () -> burst ~calm:Float.infinity ());
    (open_tenant, "mean_burst_s", "nan", fun () -> burst ~hot:Float.nan ());
    (open_tenant, "mean_burst_s", "inf", fun () -> burst ~hot:Float.infinity ());
    ("Workload.closed_tenant", "think_s", "nan", fun () -> think Float.nan);
    ("Workload.closed_tenant", "think_s", "inf", fun () -> think Float.infinity);
    ("Workload.generate", "horizon", "nan", fun () -> generate Float.nan);
    ("Workload.generate", "horizon", "inf", fun () -> generate Float.infinity);
    ("Fabric.run", "horizon", "nan", fun () -> fabric Float.nan);
    ("Fabric.run", "horizon", "inf", fun () -> fabric Float.infinity);
    ("Fabric.resume", "horizon", "nan", fun () -> resume Float.nan);
    ("Fabric.resume", "horizon", "inf", fun () -> resume Float.infinity) ]

let non_finite_test (fn, param, value, f) =
  Alcotest.test_case (Printf.sprintf "%s %s %s" fn param value) `Quick (fun () ->
      match f () with
      | exception Invalid_argument msg ->
          checkb
            (Printf.sprintf "%S names %s and %s" msg fn param)
            true
            (Astring.String.is_prefix ~affix:(fn ^ ": " ^ param) msg)
      | () -> Alcotest.failf "%s accepted %s = %s" fn param value)

(* ---- admission ------------------------------------------------------------ *)

let test_admission_token_bucket () =
  let config =
    { Admission.buckets = [ ("t", { Admission.rate_rps = 10.0; burst = 2.0 }) ];
      default_bucket = Admission.unlimited; burn_threshold = 0.0 }
  in
  let adm = Admission.create config ~tenants:[ "t" ] ~monitors:(fun _ -> []) in
  checkb "first admit" true (Admission.decide adm ~tenant:"t" ~now:0.0 = Admit);
  checkb "second admit" true (Admission.decide adm ~tenant:"t" ~now:0.0 = Admit);
  checkb "bucket empty" true
    (Admission.decide adm ~tenant:"t" ~now:0.0
    = Reject Admission.Rate_limited);
  (* 10 rps refill: one token back after 0.1 s *)
  checkb "refilled" true (Admission.decide adm ~tenant:"t" ~now:0.11 = Admit);
  match Admission.export adm with
  | [ { Admission.tp_admitted; tp_rejected; _ } ] ->
      checki "admitted count" 3 tp_admitted;
      checki "rejected count" 1 (List.fold_left (fun n (_, k) -> n + k) 0 tp_rejected)
  | _ -> Alcotest.fail "one tenant expected"

let test_admission_sheds_on_burned_budget () =
  (* deliberately burn the error budget: a 99% availability SLO fed
     nothing but failures must close the gate on both windows *)
  let m = Slo.monitor (Slo.availability "avail" 0.99) in
  for i = 0 to 19 do
    Slo.observe m ~now:(0.01 *. float_of_int i) ~ok:false ()
  done;
  let adm =
    Admission.create Admission.default_config ~tenants:[ "t" ]
      ~monitors:(fun _ -> [ m ])
  in
  (match Admission.decide adm ~tenant:"t" ~now:0.2 with
  | Reject Admission.Slo_burning -> ()
  | Admit -> Alcotest.fail "burned tenant must be shed"
  | Reject r -> Alcotest.failf "wrong reason %s" (Admission.reason_name r));
  (* pull-based recovery: once the bad events age out of the slow window
     the tenant is re-admitted without any new observations *)
  checkb "recovers after the slow window" true
    (Admission.decide adm ~tenant:"t" ~now:10.0 = Admit);
  let by_reason = Admission.rejections_by_reason adm ~tenant:"t" in
  checki "one burn rejection" 1
    (List.assoc Admission.Slo_burning by_reason)

let test_admission_disabled_gate () =
  let m = Slo.monitor (Slo.availability "avail" 0.99) in
  Slo.observe m ~now:0.0 ~ok:false ();
  let config = { Admission.default_config with burn_threshold = 0.0 } in
  let adm = Admission.create config ~tenants:[ "t" ] ~monitors:(fun _ -> [ m ]) in
  checkb "threshold <= 0 disables the gate" true
    (Admission.decide adm ~tenant:"t" ~now:0.0 = Admit)

(* ---- balancer ------------------------------------------------------------- *)

let all_routable _ = true
let no_load _ = 0

let test_balancer_round_robin () =
  let b = Balancer.create Balancer.Round_robin ~n_shards:3 in
  let pick () =
    Balancer.route b ~tenant:"t" ~routable:all_routable ~outstanding:no_load
  in
  let p1 = pick () in
  let p2 = pick () in
  let p3 = pick () in
  let p4 = pick () in
  checkb "cycles" true ([ p1; p2; p3; p4 ] = [ Some 0; Some 1; Some 2; Some 0 ]);
  let only_two i = i <> 1 in
  checkb "skips unroutable" true
    (Balancer.route b ~tenant:"t" ~routable:only_two ~outstanding:no_load
    <> Some 1);
  checkb "none routable" true
    (Balancer.route b ~tenant:"t" ~routable:(fun _ -> false)
       ~outstanding:no_load
    = None)

let test_balancer_least_outstanding () =
  let b = Balancer.create Balancer.Least_outstanding ~n_shards:3 in
  let load = function 0 -> 5 | 1 -> 2 | _ -> 9 in
  checkb "fewest outstanding" true
    (Balancer.route b ~tenant:"t" ~routable:all_routable ~outstanding:load
    = Some 1);
  checkb "lowest id on ties" true
    (Balancer.route b ~tenant:"t" ~routable:all_routable ~outstanding:no_load
    = Some 0)

let test_balancer_affinity () =
  let b = Balancer.create (Balancer.Tenant_affinity { vnodes = 64 }) ~n_shards:4 in
  let route tenant routable =
    Balancer.route b ~tenant ~routable ~outstanding:no_load
  in
  let home = route "acme" all_routable in
  checkb "has a home" true (home <> None);
  checkb "sticky" true
    (List.for_all (fun _ -> route "acme" all_routable = home) [ 1; 2; 3 ]);
  (* spread: 32 tenants over 4 shards should touch more than one shard *)
  let shards =
    List.sort_uniq compare
      (List.filter_map
         (fun i -> route (Printf.sprintf "tenant%d" i) all_routable)
         (List.init 32 Fun.id))
  in
  checkb "ring spreads tenants" true (List.length shards > 1);
  (* incident: the home shard going unroutable degrades to next-on-ring *)
  let without_home i = Some i <> home in
  let fallback = route "acme" without_home in
  checkb "walks past unroutable home" true
    (fallback <> None && fallback <> home)

let test_balancer_parse () =
  checkb "rr" true (Balancer.policy_of_string "rr" = Some Balancer.Round_robin);
  checkb "lo" true
    (Balancer.policy_of_string "least-outstanding"
    = Some Balancer.Least_outstanding);
  checkb "affinity" true
    (match Balancer.policy_of_string "affinity" with
    | Some (Balancer.Tenant_affinity _) -> true
    | _ -> false);
  checkb "junk" true (Balancer.policy_of_string "nope" = None)

(* ---- batcher -------------------------------------------------------------- *)

let req ?(kernel = "mm") id t =
  { Workload.rq_id = id; rq_tenant = "t"; rq_kernel = kernel; rq_user = -1;
    rq_seq = id; rq_arrival_s = t; rq_features = [] }

let test_batcher_size_trigger () =
  let b =
    Batcher.create { Batcher.max_batch = 3; max_delay_s = 1.0; marginal_cost = 0.25 }
  in
  checkb "first two pend" true
    (Batcher.add b ~now:0.0 (req 0 0.0) = None
    && Batcher.add b ~now:0.0 (req 1 0.0) = None);
  (match Batcher.add b ~now:0.0 (req 2 0.0) with
  | Some batch ->
      checki "full batch" 3 (Batcher.size batch);
      checkb "oldest first" true
        (List.map (fun (r : Workload.request) -> r.Workload.rq_id)
           batch.Batcher.b_requests
        = [ 0; 1; 2 ])
  | None -> Alcotest.fail "size trigger must fire");
  checki "drained" 0 (Batcher.pending b)

let test_batcher_deadline_and_greedy () =
  let b =
    Batcher.create
      { Batcher.max_batch = 8; max_delay_s = 0.01; marginal_cost = 0.25 }
  in
  ignore (Batcher.add b ~now:0.0 (req 0 0.0));
  ignore (Batcher.add b ~now:0.002 (req ~kernel:"fft" 1 0.002));
  checkb "not due yet" true (Batcher.flush_due b ~now:0.005 = []);
  (match Batcher.flush_due b ~now:0.011 with
  | [ batch ] -> checks "oldest key flushes" "mm" batch.Batcher.b_key
  | _ -> Alcotest.fail "exactly the aged key must flush");
  (match Batcher.flush_oldest b ~now:0.011 with
  | Some batch -> checks "greedy drains the rest" "fft" batch.Batcher.b_key
  | None -> Alcotest.fail "fft still pending");
  checkb "empty now" true (Batcher.flush_oldest b ~now:1.0 = None)

let test_batcher_amortization () =
  let c = { Batcher.max_batch = 8; max_delay_s = 0.01; marginal_cost = 0.25 } in
  checkf "size 1 pays full" 1.0 (Batcher.service_time c ~single_s:1.0 ~size:1);
  checkf "amortized" 1.75 (Batcher.service_time c ~single_s:1.0 ~size:4)

(* ---- autoscale ------------------------------------------------------------ *)

let test_autoscale_spawn_and_retire () =
  let t =
    Autoscale.create
      { Autoscale.default_config with
        min_workers = 1; max_workers = 4; target_queue_per_worker = 2.0;
        retire_idle_ticks = 2 }
  in
  (match Autoscale.tick t ~depth:8 ~busy:1 ~backlog_age_s:0.0 with
  | Autoscale.Spawn n ->
      checkb "spawns toward target" true (n >= 1);
      checki "requested counted" (1 + n) (Autoscale.effective_workers t)
  | _ -> Alcotest.fail "overload must spawn");
  (* spawns in flight: the controller must not double-request *)
  (match Autoscale.tick t ~depth:8 ~busy:1 ~backlog_age_s:0.0 with
  | Autoscale.Spawn n -> checkb "bounded" true (Autoscale.effective_workers t <= 4 && n >= 0)
  | _ -> ());
  while Autoscale.effective_workers t > Autoscale.workers t do
    Autoscale.worker_up t
  done;
  checkb "workers up" true (Autoscale.workers t > 1);
  let spawned = Autoscale.spawned_total t in
  checkb "spawned recorded" true (spawned >= 1);
  (* drain: idle ticks retire one worker at a time down to min *)
  let rec drain () =
    if Autoscale.workers t > 1 then begin
      ignore (Autoscale.tick t ~depth:0 ~busy:0 ~backlog_age_s:0.0);
      drain ()
    end
  in
  drain ();
  checki "back to min" 1 (Autoscale.workers t);
  checki "retired it all" (spawned) (Autoscale.retired_total t)

let test_autoscale_backlog_age_trigger () =
  let t =
    Autoscale.create
      { Autoscale.default_config with max_backlog_age_s = 0.01 }
  in
  (match Autoscale.tick t ~depth:1 ~busy:1 ~backlog_age_s:0.5 with
  | Autoscale.Spawn _ -> ()
  | _ -> Alcotest.fail "stale backlog must spawn");
  checkb "fixed pool never scales" true
    (Autoscale.tick (Autoscale.create (Autoscale.fixed 2)) ~depth:100 ~busy:2
       ~backlog_age_s:1.0
    = Autoscale.Hold)

(* ---- fabric --------------------------------------------------------------- *)

let run_fabric ?(config_f = Fun.id) ~n_shards ~seed () =
  let config = config_f (Fabric.default_config ~n_shards) in
  Fabric.run ~registry:(Metrics.create_registry ())
    { config with Fabric.seed }
    ~deploy:(Fabric.demo_deploy ())
    ~tenants:[ acme ~rate:150.0 (); globex () ]
    ~horizon:0.3

let test_fabric_serves_the_workload () =
  let r = run_fabric ~n_shards:2 ~seed:11 () in
  checkb "served some" true (Fabric.served_ok r > 20);
  checkf "healthy availability" 1.0 (Fabric.availability r);
  checkb "closed loop contributed" true
    (List.exists
       (fun x -> String.equal x.Fabric.sr_tenant "globex")
       r.Fabric.f_log);
  checkb "makespan past horizon start" true (r.Fabric.f_makespan_s > 0.0);
  (* every request resolves exactly once, ids dense *)
  let ids = List.map (fun x -> x.Fabric.sr_id) r.Fabric.f_log in
  checkb "log sorted by id, no duplicates" true
    (ids = List.sort_uniq compare ids);
  (* both shards took traffic *)
  let shards =
    List.sort_uniq compare
      (List.filter_map
         (fun x -> if x.Fabric.sr_shard >= 0 then Some x.Fabric.sr_shard else None)
         r.Fabric.f_log)
  in
  checkb "load spread over shards" true (List.length shards = 2)

let test_fabric_same_seed_identical () =
  let a = run_fabric ~n_shards:2 ~seed:5 ()
  and b = run_fabric ~n_shards:2 ~seed:5 () in
  checks "request logs byte-identical" (Fabric.render_log a)
    (Fabric.render_log b);
  checks "slo outcomes byte-identical" (Fabric.render_slos a)
    (Fabric.render_slos b);
  let c = run_fabric ~n_shards:2 ~seed:6 () in
  checkb "different seed differs" true
    (Fabric.render_log a <> Fabric.render_log c)

let prop_same_seed_identical =
  QCheck.Test.make ~count:4 ~name:"same seed + shards => identical serving"
    QCheck.(pair (int_range 1 1000) (int_range 1 3))
    (fun (seed, n_shards) ->
      let a = run_fabric ~n_shards ~seed ()
      and b = run_fabric ~n_shards ~seed () in
      String.equal (Fabric.render_log a) (Fabric.render_log b)
      && String.equal (Fabric.render_slos a) (Fabric.render_slos b))

let test_fabric_batches_under_load () =
  let r =
    Fabric.run ~registry:(Metrics.create_registry ())
      { (Fabric.default_config ~n_shards:1) with
        Fabric.seed = 3;
        autoscale = Autoscale.fixed 1;
        batcher = { Batcher.max_batch = 8; max_delay_s = 0.01; marginal_cost = 0.2 } }
      ~deploy:(Fabric.demo_deploy ())
      ~tenants:[ acme ~rate:400.0 () ]
      ~horizon:0.2
  in
  checkb "coalesced under load" true (Fabric.batched_requests r > 0);
  checkb "batch sizes recorded" true
    (List.exists (fun x -> x.Fabric.sr_batch > 1) r.Fabric.f_log)

let test_fabric_drains_dead_shard () =
  let faults =
    Faults.plan
      ~windows:[ { Faults.w_node = "shard0"; w_down = 0.05; w_up = None } ]
      ()
  in
  let r =
    Fabric.run ~registry:(Metrics.create_registry ())
      { (Fabric.default_config ~n_shards:2) with Fabric.seed = 9; faults }
      ~deploy:(Fabric.demo_deploy ())
      ~tenants:[ acme ~rate:150.0 () ]
      ~horizon:0.3
  in
  checkb "survivor carries the load" true
    (List.for_all
       (fun x ->
         x.Fabric.sr_outcome <> Fabric.Served
         || x.Fabric.sr_done_s <= 0.06
         || x.Fabric.sr_shard = 1)
       r.Fabric.f_log);
  checkb "nothing lost" true (Fabric.availability r >= 0.99);
  checkb "still serving" true (Fabric.served_ok r > 10)

(* A shard dying mid-batch must not drop the batch's members: work in
   flight when the window opens fails, is re-routed to the survivor
   (bounded by [max_reroutes]) and eventually resolves — the log holds
   exactly the arrivals of the fault-free same-seed run, with no
   [Failed "shard-crash"] leaking through. *)
let test_fabric_evacuates_inflight_mid_batch () =
  let config =
    { (Fabric.default_config ~n_shards:2) with
      Fabric.seed = 5;
      autoscale = Autoscale.fixed 1;
      batcher =
        { Batcher.max_batch = 8; max_delay_s = 0.02; marginal_cost = 0.2 } }
  in
  let run faults =
    Fabric.run ~registry:(Metrics.create_registry ())
      { config with Fabric.faults }
      ~deploy:(Fabric.demo_deploy ())
      ~tenants:[ acme ~rate:6000.0 () ]
      ~horizon:0.4
  in
  let calm = run Faults.none in
  let r =
    run
      (Faults.plan
         ~windows:[ { Faults.w_node = "shard0"; w_down = 0.1; w_up = Some 0.2 } ]
         ())
  in
  checkb "batches actually formed" true
    (List.exists (fun x -> x.Fabric.sr_batch > 1) r.Fabric.f_log);
  checkb "in-flight work re-routed" true (r.Fabric.f_reroutes > 0);
  (* arrivals are seed-driven: the crashed run resolves every one of them *)
  checki "no request dropped" (List.length calm.Fabric.f_log)
    (List.length r.Fabric.f_log);
  let ids = List.map (fun x -> x.Fabric.sr_id) r.Fabric.f_log in
  checkb "each resolved exactly once" true (ids = List.sort_uniq compare ids);
  checkb "no crash failure leaks to a client" true
    (List.for_all
       (fun x -> x.Fabric.sr_outcome <> Fabric.Failed "shard-crash")
       r.Fabric.f_log);
  (* while shard0 is down, completions come from the survivor *)
  checkb "survivor serves during the outage" true
    (List.for_all
       (fun x ->
         x.Fabric.sr_outcome <> Fabric.Served
         || x.Fabric.sr_done_s <= 0.1
         || x.Fabric.sr_done_s >= 0.2
         || x.Fabric.sr_shard = 1)
       r.Fabric.f_log)

let test_fabric_sheds_when_everything_is_down () =
  let faults =
    Faults.plan
      ~windows:[ { Faults.w_node = "shard0"; w_down = 0.05; w_up = None } ]
      ()
  in
  let r =
    Fabric.run ~registry:(Metrics.create_registry ())
      { (Fabric.default_config ~n_shards:1) with Fabric.seed = 9; faults }
      ~deploy:(Fabric.demo_deploy ())
      ~tenants:[ acme ~rate:150.0 () ]
      ~horizon:0.3
  in
  checkb "later arrivals shed or failed" true
    (Fabric.shed r + Fabric.failed r > 0);
  checkb "typed unavailability recorded" true
    (List.exists
       (fun x ->
         match x.Fabric.sr_outcome with
         | Fabric.Rejected Admission.Unavailable -> true
         | _ -> false)
       r.Fabric.f_log)

let test_shard_draining_on_open_breaker () =
  let shard =
    Shard.create ~id:0 ~batcher:Batcher.default_config
      ~autoscale:(Autoscale.fixed 1)
      ~deploy:
        (Fabric.demo_deploy
           ~breaker:
             { Everest_resilience.Breaker.failure_threshold = 2;
               cooldown_s = 10.0; half_open_probes = 1 }
           ())
      ()
  in
  checkb "healthy at start" false (Shard.draining shard);
  (* hardware-only failures trip the hw breaker and the shard drains *)
  ignore
    (Orch.serve shard.Shard.s_orch ~kernel:"mm" ~n:6 ~policy:Orch.Adaptive
       ~fail:(fun ~req:_ ~variant ~attempt:_ -> String.equal variant "hw")
       ~max_attempts:2 ());
  checkb "draining with open breaker" true (Shard.draining shard)

(* Allocation budget of the per-batch orchestrator call: a warm
   [Orch.serve ~n:1] on a demo shard, the call [Fabric.execute] makes once
   per batch.  Minor words do not depend on the host, so unlike a
   wall-time gate this one holds in tier-1; a change that moves the figure
   updates the budget and says why. *)
let orchestrator_words_per_call_budget = 1_000.0

let test_orchestrator_alloc_budget () =
  let shard =
    Shard.create ~id:0 ~batcher:Batcher.default_config
      ~autoscale:(Autoscale.fixed 1) ~deploy:(Fabric.demo_deploy ()) ()
  in
  let features = [ ("size", 1024.0) ] in
  let serve () =
    ignore
      (Orch.serve shard.Shard.s_orch ~kernel:"mm" ~n:1 ~policy:Orch.Adaptive
         ~features:(fun _ -> features)
         ~fail:(fun ~req:_ ~variant:_ ~attempt:_ -> false)
         ~max_attempts:3 ())
  in
  for _ = 1 to 50 do serve () done;
  let calls = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do serve () done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  if per_call > orchestrator_words_per_call_budget then
    Alcotest.failf "Orch.serve ~n:1 allocates %.0f minor words per call (budget %.0f)"
      per_call orchestrator_words_per_call_budget

(* Recovery's allocation per journal record: the minor words a
   quick-size journaled run (2 shards, 1.6k req/s plus 4 closed-loop
   users for 0.3 s, with faults, a snapshot every 0.05 s) allocates
   beyond the same run unjournaled, over the records it journals.
   Measured 30.9 when this budget was set (115.3 before records were
   encoded, framed and written from one buffer). *)
let recovery_words_per_record_budget = 38.0

let test_recovery_alloc_budget () =
  let config =
    { (Fabric.default_config ~n_shards:2) with
      Fabric.seed = 11;
      faults = Faults.plan ~seed:11 ~transient_prob:0.02 ~fpga_transient_prob:0.05 () }
  in
  let tenants = [ acme ~rate:1600.0 (); globex () ] and horizon = 0.3 in
  let run ?recovery () =
    let w0 = Gc.minor_words () in
    ignore
      (Fabric.run ~registry:(Metrics.create_registry ()) ?recovery config
         ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon);
    Gc.minor_words () -. w0
  in
  ignore (run ());
  let plain = run () in
  let store =
    Store.open_store ~fresh:true
      ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "everest-serving-alloc")
      ~fingerprint:(Fabric.fingerprint config ~tenants ~horizon) ()
  in
  let journaled = run ~recovery:{ Fabric.rv_store = store; rv_snapshot_every_s = 0.05 } () in
  let records = store.Store.records_written in
  Store.close store;
  let per_record = (journaled -. plain) /. float_of_int records in
  if per_record > recovery_words_per_record_budget then
    Alcotest.failf "journaling allocates %.0f minor words per record (budget %.0f)"
      per_record recovery_words_per_record_budget

(* ---- render: the served log and summary against their Printf oracle -------- *)

(* The quick-size run the render properties and budget start from: 2
   shards, 1.6k req/s plus 4 closed-loop users for 0.3 s, with faults. *)
let quick_result =
  lazy
    (Fabric.run ~registry:(Metrics.create_registry ())
       { (Fabric.default_config ~n_shards:2) with
         Fabric.seed = 11;
         faults = Faults.plan ~seed:11 ~transient_prob:0.02 ~fpga_transient_prob:0.05 () }
       ~deploy:(Fabric.demo_deploy ()) ~tenants:[ acme ~rate:1600.0 (); globex () ]
       ~horizon:0.3)

(* Floats where "%.9f" is hardest: nine-decimal ties (odd multiples of
   2^-10, the only doubles whose value times 10^9 ends in exactly .5),
   one to three ulps either side of a tie, zeros, subnormals, the 4e6
   fallback boundary and beyond, NaN and the infinities, arbitrary bit
   patterns and plain latencies, each negated half the time. *)
let gen_render_float =
  let open QCheck.Gen in
  let tie =
    map
      (fun t -> float_of_int ((2 * t) + 1) /. 1024.0)
      (oneof [ int_range 0 1000; int_range 0 1_999_999_999 ])
  in
  let rec step k x =
    if k = 0 then x
    else if k > 0 then step (k - 1) (Float.succ x)
    else step (k + 1) (Float.pred x)
  in
  let x =
    frequency
      [ (3, tie);
        (3, map2 step (oneofl [ -3; -2; -1; 1; 2; 3 ]) tie);
        ( 2,
          oneofl
            [ 0.0; 0.0009765625; Float.min_float; 4e6; Float.pred 4e6;
              Float.succ 4e6; 1e7; 1e300; Float.max_float; Float.nan;
              Float.infinity ] );
        (1, map (fun k -> Float.ldexp 1.0 (-1074 + k)) (int_range 0 51));
        (2, map Int64.float_of_bits int64);
        (3, float_range 0.0 10.0);
        (1, float_range 4e6 1e9) ]
  in
  map2 (fun neg x -> if neg then -.x else x) bool x

let gen_served_request =
  let open QCheck.Gen in
  let name =
    oneof
      [ oneofl [ "acme"; "globex"; "mm"; "hw"; "" ];
        string_size ~gen:printable (int_range 0 12) ]
  in
  let count = oneof [ int_range 0 64; oneofl [ -1; max_int; min_int ]; int ] in
  let outcome =
    oneof
      [ return Fabric.Served;
        map (fun r -> Fabric.Rejected r) (oneofl Admission.all_reasons);
        map
          (fun why -> Fabric.Failed why)
          (oneof
             [ oneofl [ "all attempts failed"; "shard died"; "" ];
               string_size ~gen:printable (int_range 0 20) ]) ]
  in
  let+ sr_id = oneof [ oneofl [ 0; 999_999; 1_000_000; max_int ]; int_range 0 2_000_000 ]
  and+ sr_tenant = name
  and+ sr_kernel = name
  and+ sr_shard = oneof [ return (-1); int_range 0 15; int ]
  and+ sr_arrival_s = gen_render_float
  and+ sr_done_s = gen_render_float
  and+ sr_latency_s = gen_render_float
  and+ sr_outcome = outcome
  and+ sr_batch = count
  and+ sr_attempts = count
  and+ sr_variant = name
  and+ sr_degraded = bool in
  { Fabric.sr_id; sr_tenant; sr_kernel; sr_shard; sr_arrival_s; sr_done_s;
    sr_latency_s; sr_outcome; sr_batch; sr_attempts; sr_variant; sr_degraded }

(* Mostly short logs, where p99 is the largest served latency, and some
   past 100 requests, where it is not. *)
let arb_log =
  QCheck.make ~print:Render_reference.render_log
    QCheck.Gen.(
      list_size
        (frequency [ (4, int_range 0 40); (1, int_range 100 300) ])
        gen_served_request)

let prop_render_log =
  QCheck.Test.make ~count:300 ~name:"served log = the Printf line" arb_log
    (fun log ->
      let r = { (Lazy.force quick_result) with Fabric.f_log = log } in
      String.equal (Fabric.render_log r) (Render_reference.render_log log))

(* The summary with its p99 value cut out, and that value. *)
let split_p99 s =
  let i = Astring.String.find_sub ~sub:"| p99 " s |> Option.get in
  let j = String.index_from s (i + 6) ' ' in
  (String.sub s 0 i ^ String.sub s j (String.length s - j), String.sub s (i + 6) (j - i - 7))

(* Equal bytes, except where the nearest rank holds zeros of both signs
   or NaNs of both signs: the value is exact up to [compare], and the
   oracle's heap sort and the selection may each take either, which
   "%.4g" prints as "0" or "-0", "nan" or "-nan". *)
let prop_render_summary =
  QCheck.Test.make ~count:300 ~name:"summary = the filter-and-sort summary"
    arb_log (fun log ->
      let r = { (Lazy.force quick_result) with Fabric.f_log = log } in
      let got = Fabric.render_summary r
      and want = Render_reference.render_summary r in
      String.equal got want
      ||
      let rest, p = split_p99 got and rest', p' = split_p99 want in
      String.equal rest rest'
      && Float.equal (float_of_string p) (float_of_string p')
      && (Float.is_nan (float_of_string p) || float_of_string p = 0.0))

(* Allocation of the three renders per request: the minor words
   [render_log], [render_slos] and [render_summary] allocate on the
   quick-size run's result with its log doubled, beyond the same result
   with its log once, over the requests the doubling adds; the
   per-tenant and per-shard lines cancel (4,292 words a call on this
   run).  Measured 0.0 when this budget was set; 433.4 with one
   [Printf.sprintf] per log line, a summary that filtered and sorted the
   log, and a [compare] sort of boxed latencies, and 308.0 with that log
   line alone. *)
let render_words_per_request_budget = 4.0

let test_render_alloc_budget () =
  let r = Lazy.force quick_result in
  let words r =
    let render () =
      ignore (Fabric.render_log r);
      ignore (Fabric.render_slos r);
      ignore (Fabric.render_summary r)
    in
    render ();
    let w0 = Gc.minor_words () in
    render ();
    Gc.minor_words () -. w0
  in
  let once = words r
  and twice = words { r with Fabric.f_log = r.Fabric.f_log @ r.Fabric.f_log } in
  let per_request = (twice -. once) /. float_of_int (List.length r.Fabric.f_log) in
  if per_request > render_words_per_request_budget then
    Alcotest.failf "rendering allocates %.1f minor words per request (budget %.0f)"
      per_request render_words_per_request_budget

let () =
  Alcotest.run "everest_serving"
    [ ( "workload",
        [ Alcotest.test_case "deterministic under a seed" `Quick
            test_workload_deterministic;
          Alcotest.test_case "dense sorted arrivals" `Quick
            test_workload_shape;
          Alcotest.test_case "burst overlay raises the rate" `Quick
            test_workload_burst_raises_rate;
          Alcotest.test_case "closed-loop users" `Quick
            test_workload_closed_users;
          Alcotest.test_case "validation" `Quick test_workload_validation ] );
      ("non-finite", List.map non_finite_test non_finite_cases);
      ( "admission",
        [ Alcotest.test_case "token bucket" `Quick test_admission_token_bucket;
          Alcotest.test_case "sheds on burned budget" `Quick
            test_admission_sheds_on_burned_budget;
          Alcotest.test_case "gate can be disabled" `Quick
            test_admission_disabled_gate ] );
      ( "balancer",
        [ Alcotest.test_case "round robin" `Quick test_balancer_round_robin;
          Alcotest.test_case "least outstanding" `Quick
            test_balancer_least_outstanding;
          Alcotest.test_case "tenant affinity ring" `Quick
            test_balancer_affinity;
          Alcotest.test_case "policy parsing" `Quick test_balancer_parse ] );
      ( "batcher",
        [ Alcotest.test_case "size trigger" `Quick test_batcher_size_trigger;
          Alcotest.test_case "deadline and greedy flush" `Quick
            test_batcher_deadline_and_greedy;
          Alcotest.test_case "amortization model" `Quick
            test_batcher_amortization ] );
      ( "autoscale",
        [ Alcotest.test_case "spawn and retire" `Quick
            test_autoscale_spawn_and_retire;
          Alcotest.test_case "backlog age trigger" `Quick
            test_autoscale_backlog_age_trigger ] );
      ( "fabric",
        [ Alcotest.test_case "serves the workload" `Quick
            test_fabric_serves_the_workload;
          Alcotest.test_case "same seed is byte-identical" `Quick
            test_fabric_same_seed_identical;
          Alcotest.test_case "batches under load" `Quick
            test_fabric_batches_under_load;
          Alcotest.test_case "drains a dead shard" `Quick
            test_fabric_drains_dead_shard;
          Alcotest.test_case "evacuates in-flight work mid-batch" `Quick
            test_fabric_evacuates_inflight_mid_batch;
          Alcotest.test_case "sheds when everything is down" `Quick
            test_fabric_sheds_when_everything_is_down;
          Alcotest.test_case "open breaker drains the shard" `Quick
            test_shard_draining_on_open_breaker;
          Alcotest.test_case "orchestrator allocation budget" `Quick
            test_orchestrator_alloc_budget;
          Alcotest.test_case "recovery allocation budget" `Quick
            test_recovery_alloc_budget;
          Alcotest.test_case "render allocation budget" `Quick
            test_render_alloc_budget;
          QCheck_alcotest.to_alcotest prop_same_seed_identical ] );
      ( "render",
        [ QCheck_alcotest.to_alcotest prop_render_log;
          QCheck_alcotest.to_alcotest prop_render_summary ] ) ]
