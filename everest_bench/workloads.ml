(* The four benchmark workloads: their inputs (from the seed), their set-up
   and the operation one repetition times.  README.md says why each was
   chosen. *)

module Srv = Everest_serving
module Fabric = Srv.Fabric
module Faults = Everest_resilience.Faults
module Store = Everest_recovery.Store
module Metrics = Everest_telemetry.Metrics
module W = Everest_watch
module Wf = Everest_workflow
module Cluster = Everest_platform.Cluster

let names = [ "serve-peak"; "serve-steady"; "serve-durable"; "dag-heft" ]

type durable = { snapshot_every_s : float }

type serve = {
  config : Fabric.config;
  tenants : Srv.Workload.tenant list;
  horizon : float;
  durable : durable option;
}

type input = Serve of serve | Dag of { seed : int; tasks : int }

let features seq = [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ]

(* [quick] shrinks every workload to a smoke-test size. *)
let input ~quick ~seed name =
  let acme ~rate ~period =
    Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
      ~diurnal_amplitude:0.3 ~diurnal_period_s:period ~features ()
  in
  let globex ~users ~think =
    Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users ~think_s:think ()
  in
  let config ~shards ~faults =
    { (Fabric.default_config ~n_shards:shards) with Fabric.seed; faults }
  in
  match name with
  | "serve-peak" ->
      let shards, rate, horizon = if quick then (2, 2000.0, 0.3) else (8, 6400.0, 1.0) in
      Serve
        { config = config ~shards ~faults:Faults.none;
          tenants = [ acme ~rate ~period:1.0; globex ~users:4 ~think:0.05 ];
          horizon; durable = None }
  | "serve-steady" ->
      let shards, users, horizon = if quick then (2, 32, 0.3) else (16, 512, 60.0) in
      let faults =
        Faults.plan ~seed ~transient_prob:0.05 ~fpga_transient_prob:0.10
          ~windows:
            [ { Faults.w_node = "shard3"; w_down = 3.0; w_up = Some 5.0 };
              { Faults.w_node = "shard7"; w_down = 6.0; w_up = None } ]
          ()
      in
      Serve
        { config = config ~shards ~faults;
          tenants =
            [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:640.0 ~features ();
              globex ~users ~think:2.0 ];
          horizon; durable = None }
  | "serve-durable" ->
      let shards, horizon, every = if quick then (2, 0.3, 0.05) else (4, 10.0, 0.25) in
      let faults = Faults.plan ~seed ~transient_prob:0.02 ~fpga_transient_prob:0.05 () in
      Serve
        { config = config ~shards ~faults;
          tenants = [ acme ~rate:1600.0 ~period:2.0; globex ~users:16 ~think:0.05 ];
          horizon;
          durable = Some { snapshot_every_s = every } }
  | "dag-heft" -> Dag { seed; tasks = (if quick then 20_000 else 200_000) }
  | other -> invalid_arg ("unknown workload " ^ other)

(* E20's three watch rules, scraped every 0.01 s. *)
let mk_watch (s : serve) =
  let p99 = W.Rules.Quantile_over ("latency", [ ("tenant", "acme") ], 0.99, 0.2) in
  W.Watch.create
    ~config:{ W.Watch.default_config with W.Watch.wc_interval_s = 0.01 }
    ~rules:
      [ W.Rules.record "latency:p99" p99;
        W.Rules.alert "latency-step" p99
          (W.Rules.Detector (W.Detect.cusum ~drift:0.5 ~threshold:5.0 ()));
        W.Rules.alert "fleet-degraded"
          (W.Rules.Last ("fabric:alive_shards", []))
          (W.Rules.Below (float_of_int s.config.Fabric.n_shards)) ]
    ()

(* ---- set-up --------------------------------------------------------------------- *)

type prepared = Serve_ready | Dag_ready of Wf.Dag.t * Cluster.t

(* What a user pays before the op, timed around public calls: the request
   stream and the deployed shards for serving, the DAG and the cluster for
   the workflow. *)
let setup = function
  | Serve s ->
      ignore (Srv.Workload.generate ~seed:s.config.Fabric.seed ~horizon:s.horizon s.tenants);
      for id = 0 to s.config.Fabric.n_shards - 1 do
        ignore
          (Srv.Shard.create ~id ~batcher:s.config.Fabric.batcher
             ~autoscale:s.config.Fabric.autoscale ~deploy:(Fabric.demo_deploy ()) ())
      done;
      Serve_ready
  | Dag { seed; tasks } ->
      let dag = Wf.Scalebench.make_dag ~seed Wf.Scalebench.Layered ~tasks in
      Dag_ready (dag, Cluster.everest_demonstrator ())

(* ---- the op ----------------------------------------------------------------------- *)

type store_info = {
  dir : string;
  records : int;
  journal_bytes : int;
  snapshot_bytes : int;
  work_s : float;  (* Store.work_s: host time the fabric charged to recovery *)
}

type served = {
  result : Fabric.result;
  run_s : float;  (* the run alone: for serve-durable, without the resume *)
  run_words : float;
  watch_work_s : float;
  store : store_info option;
  resume_s : float;
}

type ran =
  | Served of served
  | Dag_ran of { executed : int; makespan : float }
      (* events the op's Desim executed, simulated makespan: the op keeps
         no DAG-sized structure alive, so the replay runs on a clean heap *)

type op = {
  ran : ran;
  digest : string;
  items : int;  (* requests resolved, or tasks executed *)
  op_s : float;
  op_words : float;
  problems : string list;  (* self-checks that failed *)
}

let md5 s = Digest.to_hex (Digest.string s)

(* [Fabric.run] plus the three renders [everest_cli serve] produces, each
   a span of the real op.  The digest covers all three; each render is
   digested on its own so the benchmark never holds their concatenation. *)
let render led result =
  let r f = md5 (Ledger.span led "render" (fun () -> f result)) in
  let log = r Fabric.render_log in
  let slos = r Fabric.render_slos in
  let summary = r Fabric.render_summary in
  md5 (String.concat " " [ log; slos; summary ])

let run_and_render led ?recovery ?watch (s : serve) =
  let result =
    Fabric.run ~registry:(Metrics.create_registry ()) ?recovery ?watch s.config
      ~deploy:(Fabric.demo_deploy ()) ~tenants:s.tenants ~horizon:s.horizon
  in
  (result, render led result)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fingerprint (s : serve) = Fabric.fingerprint s.config ~tenants:s.tenants ~horizon:s.horizon

let recovery (d : durable) store =
  { Fabric.rv_store = store; rv_snapshot_every_s = d.snapshot_every_s }

(* Rerun [s] into a fresh store at [dir], crashing it after [after]
   journal records; true when the armed crash fired. *)
let crash_into (s : serve) (d : durable) ~dir ~after =
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:(fingerprint s) () in
  Store.arm_crash store ~after_records:after;
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      try
        ignore
          (Fabric.run ~registry:(Metrics.create_registry ()) ~recovery:(recovery d store)
             s.config ~deploy:(Fabric.demo_deploy ()) ~tenants:s.tenants ~horizon:s.horizon);
        false
      with Everest_recovery.Journal.Crashed -> true)

(* The durable op: (1) a journaled and watched run, timed; (2) the same
   run crashed halfway through its journal, untimed; (3) [Fabric.resume]
   from the crashed store, timed.  The resumed render must equal (1). *)
let durable_op led ~store_root (s : serve) (d : durable) =
  let run_dir = Filename.concat store_root "run" in
  let crash_dir = Filename.concat store_root "crash" in
  let w0 = Gc.minor_words () in
  let t0 = Ledger.now () in
  let store = Store.open_store ~fresh:true ~dir:run_dir ~fingerprint:(fingerprint s) () in
  let watch = mk_watch s in
  let result, digest = run_and_render led ~recovery:(recovery d store) ~watch s in
  Store.close store;
  let t1 = Ledger.now () in
  let w1 = Gc.minor_words () in
  let info =
    { dir = run_dir; records = store.Store.records_written;
      journal_bytes = store.Store.journal_bytes;
      snapshot_bytes = store.Store.snapshot_bytes; work_s = store.Store.work_s }
  in
  let did_crash = crash_into s d ~dir:crash_dir ~after:(max 1 (info.records / 2)) in
  let w2 = Gc.minor_words () in
  let t2 = Ledger.now () in
  let store = Store.open_store ~dir:crash_dir ~fingerprint:(fingerprint s) () in
  let resumed, _ =
    Fabric.resume ~registry:(Metrics.create_registry ()) ~recovery:(recovery d store)
      s.config ~deploy:(Fabric.demo_deploy ()) ~tenants:s.tenants ~horizon:s.horizon
  in
  let resumed = render (Ledger.create ()) resumed in
  Store.close store;
  let t3 = Ledger.now () in
  let w3 = Gc.minor_words () in
  { ran =
      Served
        { result; run_s = t1 -. t0; run_words = w1 -. w0;
          watch_work_s = W.Watch.work_s watch; store = Some info; resume_s = t3 -. t2 };
    digest; items = List.length result.Fabric.f_log;
    op_s = (t1 -. t0) +. (t3 -. t2);
    op_words = (w1 -. w0) +. (w3 -. w2);
    problems =
      (if did_crash then [] else [ "armed crash did not fire" ])
      @ if String.equal digest resumed then []
        else [ "resumed render differs from the uninterrupted run" ] }

let dag_digest (plan : Wf.Scheduler.plan) (st : Wf.Executor.stats) =
  let b = Buffer.create (1 lsl 20) in
  Printf.bprintf b "makespan=%.9f bytes_moved=%d transfers=%d\n" st.Wf.Executor.makespan
    st.Wf.Executor.bytes_moved st.Wf.Executor.transfers;
  List.iter (fun (n, k) -> Printf.bprintf b "%s=%d\n" n k) st.Wf.Executor.per_node_tasks;
  Array.iter
    (fun (a : Wf.Scheduler.assignment) ->
      Printf.bprintf b "%s:%s\n" a.Wf.Scheduler.node (Wf.Dag.impl_name a.Wf.Scheduler.impl))
    plan.Wf.Scheduler.assignments;
  md5 (Buffer.contents b)

(* Run the op once.  [store_root] is a temporary directory for the durable
   workload's stores. *)
let op led ~store_root input prepared =
  let w0 = Gc.minor_words () in
  let t0 = Ledger.now () in
  match (input, prepared) with
  | Serve ({ durable = None; _ } as s), _ ->
      let result, digest = run_and_render led s in
      let op_s = Ledger.now () -. t0 in
      let op_words = Gc.minor_words () -. w0 in
      { ran =
          Served
            { result; run_s = op_s; run_words = op_words; watch_work_s = 0.0;
              store = None; resume_s = 0.0 };
        digest; items = List.length result.Fabric.f_log; op_s; op_words;
        problems = [] }
  | Serve ({ durable = Some d; _ } as s), _ -> durable_op led ~store_root s d
  | Dag _, Dag_ready (dag, cluster) ->
      let plan = Wf.Scheduler.heft cluster dag in
      let stats = Wf.Executor.execute cluster plan in
      ignore (Lazy.force stats.Wf.Executor.report);
      let op_s = Ledger.now () -. t0 in
      let op_words = Gc.minor_words () -. w0 in
      let n = Wf.Dag.size dag in
      let done_ = List.fold_left (fun acc (_, k) -> acc + k) 0 stats.Wf.Executor.per_node_tasks in
      { ran =
          Dag_ran
            { executed = Everest_platform.Desim.executed cluster.Cluster.sim;
              makespan = stats.Wf.Executor.makespan };
        digest = dag_digest plan stats; items = n;
        op_s; op_words;
        problems =
          (if done_ = n then []
           else [ Printf.sprintf "executed %d of %d tasks" done_ n ]) }
  | Dag _, Serve_ready -> invalid_arg "Workloads.op: set-up does not match the input"
