(* Per-shard state; see the interface for the model. *)

module Orch = Everest_runtime.Orchestrator
module Cluster = Everest_platform.Cluster
module Metrics = Everest_telemetry.Metrics

type t = {
  s_id : int;
  s_name : string;
  s_orch : Orch.t;
  s_batcher : Batcher.t;
  s_scaler : Autoscale.t;
  s_queue : Batcher.batch Queue.t;
  mutable s_busy : int;
  mutable s_inflight : int;
  mutable s_served : int;
  mutable s_failed : int;
  mutable s_batches : int;
  mutable s_batched_requests : int;
  mutable s_peak_workers : int;
}

let create ~id ~batcher ~autoscale ~deploy () =
  let name = "shard" ^ string_of_int id in
  let cluster = Cluster.create [ Cluster.power9_node name ] in
  let orch =
    Orch.create ~registry:(Metrics.create_registry ()) cluster ~host_name:name
  in
  deploy orch;
  let scaler = Autoscale.create autoscale in
  { s_id = id; s_name = name; s_orch = orch;
    s_batcher = Batcher.create batcher; s_scaler = scaler;
    s_queue = Queue.create (); s_busy = 0; s_inflight = 0; s_served = 0;
    s_failed = 0; s_batches = 0; s_batched_requests = 0;
    s_peak_workers = Autoscale.workers scaler }

type persisted = {
  sp_busy : int;
  sp_inflight : int;
  sp_served : int;
  sp_failed : int;
  sp_batches : int;
  sp_batched_requests : int;
  sp_peak_workers : int;
  sp_scaler : Autoscale.persisted;
  sp_batcher : (string * float * Workload.request list) list;
  sp_queue : Batcher.batch list;
  sp_orch : Orch.persisted_state;
}

let export t =
  { sp_busy = t.s_busy; sp_inflight = t.s_inflight; sp_served = t.s_served;
    sp_failed = t.s_failed; sp_batches = t.s_batches;
    sp_batched_requests = t.s_batched_requests;
    sp_peak_workers = t.s_peak_workers;
    sp_scaler = Autoscale.export t.s_scaler;
    sp_batcher = Batcher.export t.s_batcher;
    sp_queue = List.of_seq (Queue.to_seq t.s_queue);
    sp_orch = Orch.export_state t.s_orch }

let import t p =
  t.s_busy <- p.sp_busy;
  t.s_inflight <- p.sp_inflight;
  t.s_served <- p.sp_served;
  t.s_failed <- p.sp_failed;
  t.s_batches <- p.sp_batches;
  t.s_batched_requests <- p.sp_batched_requests;
  t.s_peak_workers <- p.sp_peak_workers;
  Autoscale.import t.s_scaler p.sp_scaler;
  Batcher.import t.s_batcher p.sp_batcher;
  Queue.clear t.s_queue;
  List.iter (fun b -> Queue.push b t.s_queue) p.sp_queue;
  Orch.restore_state t.s_orch p.sp_orch

let queued_requests t =
  Queue.fold (fun acc b -> acc + Batcher.size b) 0 t.s_queue

let depth t = Batcher.pending t.s_batcher + queued_requests t
let outstanding t = depth t + t.s_inflight

let backlog_age t ~now =
  let from_queue =
    Queue.fold
      (fun acc (b : Batcher.batch) ->
        match b.Batcher.b_requests with
        | r :: _ -> Float.max acc (now -. r.Workload.rq_arrival_s)
        | [] -> acc)
      0.0 t.s_queue
  in
  Float.max (Batcher.oldest_age t.s_batcher ~now) from_queue

let draining t =
  List.exists
    (fun (dk : Orch.deployed_kernel) ->
      List.exists
        (fun (variant, _) ->
          Orch.breaker_state t.s_orch dk ~variant
          = Some Everest_resilience.Breaker.Open)
        dk.Orch.breakers)
    t.s_orch.Orch.kernels
