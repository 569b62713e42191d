(* Replays of a finished op into each layer's public functions, timed from
   outside (see Ledger).  A replay rebuilds the layer's inputs from what
   the real run exposes — the served log, the shard reports, the store on
   disk — and calls the layer in simulated-time order.  Nothing is fed
   back, so a replayed decision may drift from the real one; what the
   replay measures is the cost of the calls, and the fidelity checks pin
   its call counts to the counts the real run exposes. *)

module Srv = Everest_serving
module Fabric = Srv.Fabric
module Slo = Everest_observe.Slo
module Metrics = Everest_telemetry.Metrics
module Desim = Everest_platform.Desim
module Cluster = Everest_platform.Cluster
module Orch = Everest_runtime.Orchestrator
module Faults = Everest_resilience.Faults
module Store = Everest_recovery.Store
module Journal = Everest_recovery.Journal
module Wf = Everest_workflow

(* A replayed call count against the count the real run exposes. *)
type check = { what : string; replayed : int; real : int }

type result = {
  base_s : float;  (* the time the layers partition: shares are of this *)
  covered : string list;  (* layers whose self times partition it *)
  checks : check list;
}

(* ---- serving ---------------------------------------------------------------------- *)

type event = Arrive of Fabric.served_request | Resolve of Fabric.served_request

(* Every request's fresh arrival and its resolution, in simulated-time
   order; an arrival precedes its own rejection at the same instant. *)
let timeline log =
  let keyed =
    Array.append
      (Array.map (fun (x : Fabric.served_request) -> (x.sr_arrival_s, 0, x.sr_id, Arrive x)) log)
      (Array.map (fun (x : Fabric.served_request) -> (x.sr_done_s, 1, x.sr_id, Resolve x)) log)
  in
  Array.stable_sort
    (fun (t1, k1, i1, _) (t2, k2, i2, _) ->
      match Float.compare t1 t2 with
      | 0 -> ( match Int.compare k1 k2 with 0 -> Int.compare i1 i2 | c -> c)
      | c -> c)
    keyed;
  Array.map (fun (_, _, _, e) -> e) keyed

(* Monitors built exactly as the fabric builds them: the config's
   objectives, prefixed with the tenant name. *)
let tenant_monitors (s : Workloads.serve) =
  List.map
    (fun (t : Srv.Workload.tenant) ->
      let name = t.Srv.Workload.t_name in
      ( name,
        List.map
          (fun (spec : Slo.spec) ->
            Slo.monitor ~alert:s.config.Fabric.alert
              { spec with Slo.slo_name = name ^ "/" ^ spec.Slo.slo_name })
          s.config.Fabric.tenant_slos ))
    s.tenants

(* Admission decides every fresh arrival while the SLO monitors observe
   every resolved request, interleaved on the simulated clock: admission
   reads the same monitors' burn rates. *)
let admission_and_slo led (s : Workloads.serve) events =
  let monitors = tenant_monitors s in
  let adm =
    Srv.Admission.create s.config.Fabric.admission ~tenants:(List.map fst monitors)
      ~monitors:(fun n -> List.assoc n monitors)
  in
  let window = ref 0 in
  Array.iter
    (function
      | Arrive x ->
          ignore
            (Ledger.span led "admission" ~rq:x.Fabric.sr_id (fun () ->
                 Srv.Admission.decide adm ~tenant:x.Fabric.sr_tenant ~now:x.Fabric.sr_arrival_s))
      | Resolve x -> (
          match x.Fabric.sr_outcome with
          | Fabric.Rejected _ -> ()
          | Fabric.Served | Fabric.Failed _ ->
              let ok = x.Fabric.sr_outcome = Fabric.Served in
              List.iter
                (fun m ->
                  window := !window + List.length (Slo.monitor_export m).Slo.ms_events;
                  Ledger.span led "slo" ~rq:x.Fabric.sr_id (fun () ->
                      Slo.observe m ~now:x.Fabric.sr_done_s ~latency_s:x.Fabric.sr_latency_s
                        ~ok ()))
                (List.assoc x.Fabric.sr_tenant monitors)))
    events;
  let n = Ledger.calls led "slo" in
  Ledger.set_extra led "slo.window_events"
    (if n = 0 then 0.0 else float_of_int !window /. float_of_int n);
  List.length (snd (List.hd monitors))

(* The fabric's registry traffic: a counter per arrival, and per resolution
   a counter (plus the latency histogram when served). *)
let metrics led events =
  let registry = Metrics.create_registry () in
  let count ?(labels = []) tenant name =
    Metrics.inc (Metrics.counter ~registry ~labels:(("tenant", tenant) :: labels) name)
  in
  Array.iter
    (function
      | Arrive x ->
          Ledger.span led "metrics" ~rq:x.Fabric.sr_id (fun () ->
              count x.Fabric.sr_tenant "serving_requests_total")
      | Resolve x ->
          Ledger.span led "metrics" ~rq:x.Fabric.sr_id (fun () ->
              let tenant = x.Fabric.sr_tenant in
              match x.Fabric.sr_outcome with
              | Fabric.Served ->
                  count tenant "serving_served_total";
                  Metrics.observe
                    (Metrics.histogram ~registry ~labels:[ ("tenant", tenant) ]
                       "serving_latency_s")
                    x.Fabric.sr_latency_s
              | Fabric.Failed _ -> count tenant "serving_failed_total"
              | Fabric.Rejected reason ->
                  count tenant
                    ~labels:[ ("reason", Srv.Admission.reason_name reason) ]
                    "serving_shed_total"))
    events

let admitted (x : Fabric.served_request) =
  match x.sr_outcome with
  | Fabric.Rejected (Srv.Admission.Rate_limited | Srv.Admission.Slo_burning) -> false
  | _ -> true

let shard_names n = Array.init n (fun i -> "shard" ^ string_of_int i)

(* Every admitted arrival is routed over the live shards by outstanding
   load, then queued in that shard's batcher; a batch leaves when it
   reaches the size the real run served the request in. *)
let routing led (s : Workloads.serve) ~max_id events =
  let cfg = s.config in
  let n = cfg.Fabric.n_shards in
  let names = shard_names n in
  let balancer = Srv.Balancer.create cfg.Fabric.balancer ~n_shards:n in
  let batchers = Array.init n (fun _ -> Srv.Batcher.create cfg.Fabric.batcher) in
  let outstanding = Array.make n 0 in
  let routed = Array.make (max_id + 1) (-1) in
  Array.iter
    (function
      | Arrive x when admitted x -> (
          let now = x.Fabric.sr_arrival_s in
          let pick =
            Ledger.span led "balancer" ~rq:x.Fabric.sr_id (fun () ->
                Srv.Balancer.route balancer ~tenant:x.Fabric.sr_tenant
                  ~routable:(fun sid ->
                    not (Faults.node_dead cfg.Fabric.faults ~node:names.(sid) ~now))
                  ~outstanding:(fun sid -> outstanding.(sid)))
          in
          match pick with
          | None -> ()
          | Some sid ->
              outstanding.(sid) <- outstanding.(sid) + 1;
              routed.(x.Fabric.sr_id) <- sid;
              let b = batchers.(sid) in
              let rq =
                { Srv.Workload.rq_id = x.Fabric.sr_id; rq_tenant = x.Fabric.sr_tenant;
                  rq_kernel = x.Fabric.sr_kernel; rq_user = -1; rq_seq = 0;
                  rq_arrival_s = now; rq_features = [] }
              in
              Ledger.span led "batcher" ~rq:x.Fabric.sr_id (fun () ->
                  match Srv.Batcher.add b ~now rq with
                  | Some _ -> ()
                  | None ->
                      if Srv.Batcher.pending b >= max 1 x.Fabric.sr_batch then
                        ignore (Srv.Batcher.flush_oldest b ~now)))
      | Arrive _ -> ()
      | Resolve x ->
          let sid = routed.(x.Fabric.sr_id) in
          if sid >= 0 then outstanding.(sid) <- outstanding.(sid) - 1)
    events

(* Executed batches as (shard, completion time, head request id).  A batch
   that resolved its requests shows in the log as the requests sharing its
   shard, size and completion instant, headed by the oldest.  A batch whose
   requests were all re-routed leaves no trace there; its slots are filled
   with re-routed requests, so each shard gets exactly [sh_batches]. *)
let batches (r : Fabric.result) log =
  let groups = Hashtbl.create 4096 in
  Array.iter
    (fun (x : Fabric.served_request) ->
      if x.sr_shard >= 0 && x.sr_batch > 0 then
        let key = (x.sr_shard, x.sr_done_s, x.sr_batch) in
        match Hashtbl.find_opt groups key with
        | Some head when head <= x.sr_id -> ()
        | _ -> Hashtbl.replace groups key x.sr_id)
    log;
  let per_shard = Array.make r.Fabric.f_config.Fabric.n_shards [] in
  Hashtbl.iter
    (fun (sid, t, _) head -> per_shard.(sid) <- (t, head) :: per_shard.(sid))
    groups;
  let rerouted =
    Array.to_list log
    |> List.filter (fun (x : Fabric.served_request) -> x.sr_attempts > 1)
    |> List.map (fun (x : Fabric.served_request) -> (x.sr_arrival_s, x.sr_id))
  in
  let rec take k xs pad =
    if k = 0 then []
    else
      match xs with
      | x :: rest -> x :: take (k - 1) rest pad
      | [] -> if pad = [] then [] else take k pad pad
  in
  List.concat_map
    (fun (sh : Fabric.shard_report) ->
      let own = List.sort compare per_shard.(sh.sh_id) in
      take sh.sh_batches own (if rerouted = [] then own else rerouted)
      |> List.map (fun (t, head) -> (sh.sh_id, t, head)))
    r.Fabric.f_shards

(* One [Orchestrator.serve ~n:1] per executed batch on fresh shards, with
   fault verdicts keyed like the fabric's. *)
let orchestrator led (s : Workloads.serve) ~by_id ~features batches =
  let cfg = s.config in
  let shards =
    Array.init cfg.Fabric.n_shards (fun id ->
        Srv.Shard.create ~id ~batcher:cfg.Fabric.batcher ~autoscale:cfg.Fabric.autoscale
          ~deploy:(Fabric.demo_deploy ()) ())
  in
  let retries = ref 0 in
  List.iter
    (fun (sid, _, head) ->
      let orch = shards.(sid).Srv.Shard.s_orch in
      let kernel = (Hashtbl.find by_id head : Fabric.served_request).sr_kernel in
      let dk = Orch.find_kernel orch kernel in
      let key = head + (sid * 1_000_003) in
      let fail ~req:_ ~variant ~attempt =
        Faults.transient cfg.Fabric.faults ~task:key ~attempt
        || List.mem_assoc variant dk.Orch.breakers
           && Faults.fpga_transient cfg.Fabric.faults ~task:key ~attempt
      in
      let feats = Option.value ~default:[] (Hashtbl.find_opt features head) in
      let log =
        Ledger.span led "orchestrator" ~rq:head (fun () ->
            Orch.serve orch ~kernel ~n:1 ~policy:cfg.Fabric.orch_policy
              ~features:(fun _ -> feats) ~fail ~max_attempts:cfg.Fabric.orch_max_attempts ())
      in
      List.iter (fun (e : Orch.request_log) -> retries := !retries + e.attempts - 1) log)
    batches;
  Ledger.set_extra led "orchestrator.retries" (float_of_int !retries)

(* The control loop: one [Autoscale.tick] per live shard per tick, over
   the ticks the run took to drain.  Returns the tick count. *)
let autoscale led (s : Workloads.serve) (r : Fabric.result) =
  let cfg = s.config in
  let tick_s = cfg.Fabric.autoscale.Srv.Autoscale.tick_s in
  let names = shard_names cfg.Fabric.n_shards in
  let scalers =
    Array.init cfg.Fabric.n_shards (fun _ -> Srv.Autoscale.create cfg.Fabric.autoscale)
  in
  let ticks = 1 + int_of_float (Float.ceil (r.Fabric.f_makespan_s /. tick_s)) in
  for k = 0 to ticks - 1 do
    let now = float_of_int k *. tick_s in
    let live =
      List.filter
        (fun sid -> not (Faults.node_dead cfg.Fabric.faults ~node:names.(sid) ~now))
        (List.init cfg.Fabric.n_shards Fun.id)
    in
    Ledger.span led "autoscale" ~n:(List.length live) (fun () ->
        List.iter
          (fun sid ->
            ignore (Srv.Autoscale.tick scalers.(sid) ~depth:0 ~busy:0 ~backlog_age_s:0.0))
          live)
  done;
  ticks

(* The fabric clock's engine cost: a fresh Desim with one event per
   arrival, batch completion and control tick of the run. *)
let desim_serve led log batches ~ticks ~tick_s =
  let sim = Desim.create () in
  let n = Array.length log + List.length batches + ticks in
  Ledger.span led "desim" ~n (fun () ->
      Array.iter (fun (x : Fabric.served_request) -> Desim.at sim x.sr_arrival_s ignore) log;
      List.iter (fun (_, t, _) -> Desim.at sim t ignore) batches;
      for k = 0 to ticks - 1 do
        Desim.at sim (float_of_int k *. tick_s) ignore
      done;
      Desim.run sim);
  Ledger.set_extra led "desim.events" (float_of_int (Desim.executed sim))

(* Every served latency into a fresh watch with the run's rules, in
   completion order. *)
let watch led (s : Workloads.serve) log =
  let w = Workloads.mk_watch s in
  Array.to_list log
  |> List.filter (fun (x : Fabric.served_request) -> x.sr_outcome = Fabric.Served)
  |> List.sort (fun (a : Fabric.served_request) (b : Fabric.served_request) ->
         compare (a.sr_done_s, a.sr_id) (b.sr_done_s, b.sr_id))
  |> List.iter (fun (x : Fabric.served_request) ->
         Ledger.span led "watch" ~rq:x.sr_id (fun () ->
             Everest_watch.Watch.observe w ~now:x.sr_done_s
               ~labels:[ ("tenant", x.sr_tenant) ]
               "latency" x.sr_latency_s))

(* The uninterrupted run's snapshot writes and journal appends, re-issued
   from its store into a fresh one; then [Store.plan_resume] timed on its
   own, over a store crashed like the op's.  Returns the records
   re-appended. *)
let recovery led (s : Workloads.serve) d (info : Workloads.store_info) ~tmp_dir =
  let fingerprint = Workloads.fingerprint s in
  let src = Store.open_store ~dir:info.dir ~fingerprint () in
  let dst =
    Store.open_store ~fresh:true ~dir:(Filename.concat tmp_dir "replay") ~fingerprint ()
  in
  List.iter
    (fun i ->
      (match Store.load_snapshot src ~index:i with
      | Ok body -> Ledger.span led "recovery" (fun () -> Store.write_snapshot dst ~index:i body)
      | Error e -> failwith ("snapshot replay: " ^ Store.error_to_string e));
      List.iter
        (fun record -> Ledger.span led "recovery" (fun () -> Store.append dst record))
        (Journal.read_segment (Store.seg_path src i)).Journal.sg_records)
    (Store.snapshot_indices src);
  Store.close dst;
  Store.close src;
  let crash_dir = Filename.concat tmp_dir "crash" in
  ignore (Workloads.crash_into s d ~dir:crash_dir ~after:(max 1 (info.records / 2)));
  let crashed = Store.open_store ~dir:crash_dir ~fingerprint () in
  let t0 = Ledger.now () in
  ignore (Store.plan_resume crashed);
  Ledger.set_extra led "recovery.plan_resume_s" (Ledger.now () -. t0);
  Store.close crashed;
  dst.Store.records_written

(* For serve-durable the layers partition the journaled run; its resume,
   which re-simulates the run from a snapshot, is reported whole as
   [recovery.resume_s] and [Store.plan_resume] on its own as
   [recovery.plan_resume_s]. *)
let serve led (s : Workloads.serve) (sv : Workloads.served) ~tmp_dir =
  let r = sv.result in
  let log = Array.of_list r.Fabric.f_log in
  let by_id = Hashtbl.create (Array.length log) in
  Array.iter (fun (x : Fabric.served_request) -> Hashtbl.replace by_id x.sr_id x) log;
  let max_id = Array.fold_left (fun m (x : Fabric.served_request) -> max m x.sr_id) 0 log in
  let events = timeline log in
  let generated =
    Ledger.span led "workload" (fun () ->
        Srv.Workload.generate ~seed:s.config.Fabric.seed ~horizon:s.horizon s.tenants)
  in
  let features = Hashtbl.create (List.length generated) in
  List.iter
    (fun (rq : Srv.Workload.request) -> Hashtbl.replace features rq.rq_id rq.rq_features)
    generated;
  let monitors_per_tenant = admission_and_slo led s events in
  metrics led events;
  routing led s ~max_id events;
  let batches = batches r log in
  orchestrator led s ~by_id ~features batches;
  let ticks = autoscale led s r in
  desim_serve led log batches ~ticks
    ~tick_s:s.config.Fabric.autoscale.Srv.Autoscale.tick_s;
  let over_shards f =
    List.fold_left (fun acc (sh : Fabric.shard_report) -> acc + f sh) 0 r.f_shards
  in
  let executed = over_shards (fun sh -> sh.sh_batches) in
  Ledger.set_extra led "batcher.mean_batch"
    (float_of_int (over_shards (fun sh -> sh.sh_served + sh.sh_failed))
    /. float_of_int (max 1 executed));
  Ledger.set_extra led "fabric.sim_p99_ms" (1e3 *. Fabric.latency_quantile r 0.99);
  Ledger.set_extra led "fabric.sim_availability" (Fabric.availability r);
  let resolved =
    Array.fold_left
      (fun acc (x : Fabric.served_request) ->
        match x.sr_outcome with Fabric.Rejected _ -> acc | _ -> acc + 1)
      0 log
  in
  let durable_checks =
    match (s.durable, sv.store) with
    | Some d, Some info ->
        watch led s log;
        Ledger.set_extra led "watch.work_share" (sv.watch_work_s /. sv.run_s);
        let reappended = recovery led s d info ~tmp_dir in
        Ledger.set_extra led "recovery.work_share" (info.work_s /. sv.run_s);
        Ledger.set_extra led "recovery.journal_kib" (float_of_int info.journal_bytes /. 1024.0);
        Ledger.set_extra led "recovery.snapshot_kib" (float_of_int info.snapshot_bytes /. 1024.0);
        Ledger.set_extra led "recovery.resume_s" sv.resume_s;
        [ { what = "recovery journal records"; replayed = reappended; real = info.records } ]
    | _ -> []
  in
  let covered =
    [ "workload"; "admission"; "slo"; "orchestrator"; "metrics"; "balancer"; "batcher";
      "autoscale"; "desim"; "watch"; "recovery"; "render" ]
  in
  (* what no replay reaches: the fabric's event loop and the rest *)
  let sum f = List.fold_left (fun acc l -> acc +. f led l) 0.0 covered in
  Ledger.add led "fabric" ~calls:1 ~self_s:(sv.run_s -. sum Ledger.self_s)
    ~words:(sv.run_words -. sum Ledger.words);
  { base_s = sv.run_s;
    covered;
    checks =
      [ { what = "orchestrator.calls = sum of sh_batches";
          replayed = Ledger.calls led "orchestrator"; real = executed };
        { what = "admission.calls = fresh arrivals";
          replayed = Ledger.calls led "admission"; real = Array.length log };
        { what = "slo.calls = resolved requests x monitors";
          replayed = Ledger.calls led "slo"; real = resolved * monitors_per_tenant } ]
      @ durable_checks }

(* ---- workflow --------------------------------------------------------------------- *)

(* The op's pipeline once more, one span per stage: generation, HEFT, the
   plan-lint gate on its own, execution without the gate, the report; then
   the engine cost of as many events as the op's Desim executed, with a
   bounded pending set like the executor's (so this span is nested in the
   executor's, and left out of coverage). *)
let dag led ~seed ~tasks ~op_s ~executed ~makespan =
  let dag =
    Ledger.span led "dag" (fun () -> Wf.Scalebench.make_dag ~seed Wf.Scalebench.Layered ~tasks)
  in
  let c = Cluster.everest_demonstrator () in
  let plan = Ledger.span led "scheduler" (fun () -> Wf.Scheduler.heft c dag) in
  Ledger.span led "planlint" (fun () -> Wf.Planlint.gate c plan);
  let stats = Ledger.span led "executor" (fun () -> Wf.Executor.execute ~plan_lint:false c plan) in
  ignore (Ledger.span led "report" (fun () -> Lazy.force stats.Wf.Executor.report));
  let sim = Desim.create () in
  let width = 64 in
  let scheduled = ref 0 in
  let rec event () =
    if !scheduled < executed then begin
      incr scheduled;
      Desim.schedule sim 1e-3 event
    end
  in
  Ledger.span led "desim" ~n:executed (fun () ->
      for _ = 1 to min width executed do
        event ()
      done;
      Desim.run sim);
  Ledger.set_extra led "desim.events" (float_of_int (Desim.executed sim));
  Ledger.set_extra led "executor.sim_makespan_s" makespan;
  { base_s = op_s;
    covered = [ "scheduler"; "planlint"; "executor"; "report" ];
    checks =
      [ { what = "desim.events = Desim.executed"; replayed = Desim.executed sim;
          real = executed } ] }
