(* The serving fabric's event loop.  See the interface for the model; the
   implementation notes here cover the invariants:

   - Fabric time is one Desim engine: arrival events (pre-generated
     open-loop requests, closed-loop continuations), batch completions,
     deadline flushes, autoscale ticks and delayed worker spawns all
     queue there.  Desim breaks ties by insertion order, so the whole
     run is a deterministic function of (config, tenants, horizon).
   - [outstanding] counts admitted-but-unresolved requests and
     [arrivals_pending] counts scheduled-but-unhandled arrival events;
     the autoscale tick re-arms only while either is positive, which is
     what lets the simulation drain and terminate.
   - Every request resolves exactly once ([resolve]), which also drives
     the per-tenant SLO monitors and the closed-loop continuation.

   Crash consistency: every scheduled continuation is a *typed event*
   ([ev]) — plain data, no closures — under a monotonically increasing
   id.  That design carries the whole recovery story:

   - Journal: when recovery is on, firing an event first appends its
     encoded form to the write-ahead journal, then performs it; each
     resolved request appends its served-log entry.  Replay after a
     crash re-derives both kinds of record and byte-compares them
     against the journal (divergence is a typed error, not a wrong
     answer).
   - Snapshot: at tick boundaries the live state — shard queues and
     batcher accumulators, admission buckets, SLO monitor windows,
     breaker/tuner state inside each shard's orchestrator, closed-loop
     RNG positions, and the pending events in [st_pending] — serializes
     byte-deterministically, with counts of the fired open-loop
     arrivals and of the served-log entries, which a resumed run
     re-derives.  Restore = decode the newest valid snapshot into a
     freshly built fabric, warp the clock, rebuild the log from the
     journal before the snapshot, re-insert the pending events and the
     unfired open-loop arrivals in id order (id order equals original
     insertion order, so Desim tie-breaking is preserved), then replay
     the journal tail in verify mode until it is exhausted and the run
     continues live. *)

module Slo = Everest_observe.Slo
module Orch = Everest_runtime.Orchestrator
module Desim = Everest_platform.Desim
module Faults = Everest_resilience.Faults
module Breaker = Everest_resilience.Breaker
module Tuner = Everest_autotune.Tuner
module Knowledge = Everest_autotune.Knowledge
module Metrics = Everest_telemetry.Metrics
module Codec = Everest_recovery.Codec
module Store = Everest_recovery.Store
module Watch = Everest_watch.Watch
module Scrape = Everest_watch.Scrape

type config = {
  n_shards : int;
  seed : int;
  balancer : Balancer.policy;
  admission : Admission.config;
  batcher : Batcher.config;
  autoscale : Autoscale.config;
  faults : Faults.t;
  max_reroutes : int;
  max_queue : int;
  tenant_slos : Slo.spec list;
  alert : Slo.alert_config;
  orch_policy : Orch.policy;
  orch_max_attempts : int;
}

let default_config ~n_shards =
  { n_shards; seed = 7; balancer = Balancer.Least_outstanding;
    admission = Admission.default_config;
    batcher = Batcher.default_config;
    autoscale = Autoscale.default_config;
    faults = Faults.none; max_reroutes = 3; max_queue = 64;
    tenant_slos =
      [ Slo.availability "availability" 0.99;
        Slo.latency "p99-latency" ~q:0.99 ~limit_s:0.05 ];
    alert = Slo.default_alert; orch_policy = Orch.Adaptive;
    orch_max_attempts = 3 }

type outcome = Served | Rejected of Admission.reason | Failed of string

type served_request = {
  sr_id : int;
  sr_tenant : string;
  sr_kernel : string;
  sr_shard : int;
  sr_arrival_s : float;
  sr_done_s : float;
  sr_latency_s : float;
  sr_outcome : outcome;
  sr_batch : int;
  sr_attempts : int;
  sr_variant : string;
  sr_degraded : bool;
}

type tenant_report = {
  tr_tenant : string;
  tr_requests : int;
  tr_served : int;
  tr_failed : int;
  tr_shed : (Admission.reason * int) list;
  tr_slos : Slo.result list;
  tr_alerts : int;
}

type shard_report = {
  sh_id : int;
  sh_served : int;
  sh_failed : int;
  sh_batches : int;
  sh_batched_requests : int;
  sh_workers : int;
  sh_peak_workers : int;
}

type result = {
  f_config : config;
  f_horizon_s : float;
  f_makespan_s : float;
  f_log : served_request list;
  f_tenants : tenant_report list;
  f_shards : shard_report list;
  f_spawned : int;
  f_retired : int;
  f_reroutes : int;
}

(* ---- recovery plumbing ---------------------------------------------------------- *)

type recovery = {
  rv_store : Store.t;
  rv_snapshot_every_s : float;
}

type restore_report = {
  rr_snapshot_index : int;  (* snapshot the resume anchored on *)
  rr_fallbacks : int;  (* newer snapshots rejected as invalid *)
  rr_skipped : (int * string) list;  (* index, why it was rejected *)
  rr_replayed : int;  (* journal records replay-verified *)
  rr_torn_tail : bool;  (* a half-written record was truncated *)
}

(* Bumped whenever a snapshot or journal record changes shape or
   meaning, so a store written by another layout fails to open with
   [Config_mismatch] instead of resuming into garbage.  2: live-state
   snapshots, served-log entries as journal records. *)
let schema_version = 2

(* The run is a deterministic function of (config, tenants, horizon); a
   store written under one configuration must never be resumed under
   another.  Tenant feature functions are code, not data, and are
   excluded — swapping them while keeping the same names is on the
   caller. *)
let fingerprint (config : config) ~tenants ~horizon =
  let tenant_sig =
    List.map
      (fun (t : Workload.tenant) ->
        (t.Workload.t_name, t.Workload.t_kernel, t.Workload.t_arrival))
      tenants
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (schema_version, config, tenant_sig, horizon) []))

(* ---- run state ------------------------------------------------------------------ *)

(* Typed fabric events.  Everything Desim will ever run on the fabric
   clock is one of these — plain data, so the pending set can be
   snapshotted and a restored run can re-create the closures. *)
type ev =
  | Ev_arrival of Workload.request  (* fresh arrival passing admission *)
  | Ev_complete of {
      c_sid : int;
      c_start : float;
      c_batch : Batcher.batch;
      c_entry : Orch.request_log;
    }
  | Ev_flush of int  (* batcher deadline flush on one shard *)
  | Ev_spawn of int  (* delayed autoscale worker-up on one shard *)
  | Ev_tick  (* fabric control tick *)

(* One write-ahead journal record. *)
type record =
  | Fired of int * float * ev  (* event id, fire time, event *)
  | Logged of served_request  (* a resolved request's served-log entry *)

type state = {
  st_config : config;
  st_sim : Desim.t;
  st_shards : Shard.t array;
  st_balancer : Balancer.t;
  st_admission : Admission.t;
  st_monitors : (string * Slo.monitor list) list;  (* per tenant *)
  st_users : Workload.closed_user list;  (* export/import order *)
  st_user_of : (string * int, Workload.closed_user) Hashtbl.t;
      (* the same users by (tenant, user index) *)
  st_horizon : float;
  st_registry : Metrics.registry;
  mutable st_log : served_request list;  (* newest first *)
  mutable st_logged : int;  (* entries in [st_log] *)
  mutable st_outstanding : int;  (* admitted, not yet resolved *)
  mutable st_arrivals_pending : int;  (* scheduled arrival events *)
  mutable st_next_id : int;
  mutable st_reroutes : int;
  st_failures : (int, int) Hashtbl.t;
      (* unresolved request id -> failed executions *)
  (* recovery *)
  st_recovery : recovery option;
  mutable st_ev_seq : int;  (* next event id *)
  mutable st_opened : int;  (* open-loop arrivals fired *)
  st_pending : (int, float * ev) Hashtbl.t;
      (* scheduled, not yet fired, open-loop arrivals aside: fire time
         and event *)
  mutable st_last_snap : float;
  mutable st_snap_index : int;
  st_watch : Watch.t option;
      (* strictly read-only observer: scraped on control ticks, fed
         latencies at resolve — never schedules events or feeds back, so
         a watched run stays byte-identical to the unwatched one *)
}

let shard_alive st sid ~now =
  not
    (Faults.node_dead st.st_config.faults
       ~node:st.st_shards.(sid).Shard.s_name ~now)

let routable st sid ~now =
  let shard = st.st_shards.(sid) in
  shard_alive st sid ~now
  && (not (Shard.draining shard))
  && Shard.depth shard < st.st_config.max_queue

let tenant_monitors st tenant =
  Option.value ~default:[] (List.assoc_opt tenant st.st_monitors)

let counter st ?labels name = Metrics.counter ~registry:st.st_registry ?labels name

(* ---- persisted formats ---------------------------------------------------------- *)

(* The resumable fabric state as plain data: one snapshot body (the
   Snapshot envelope adds version + checksum).  [export] reads it off a
   live state, [import] writes it into a freshly built one. *)
type image = {
  im_now : float;
  im_ev_seq : int;
  im_outstanding : int;
  im_next_id : int;
  im_reroutes : int;
  im_failures : (int * int) list;  (* by request id *)
  im_cursor : int;  (* balancer *)
  im_opened : int;  (* open-loop arrivals fired *)
  im_logged : int;  (* served-log entries, journaled before the snapshot *)
  im_admission : Admission.tenant_persisted list;
  im_monitors : (string * Slo.monitor_state list) list;
  im_users : int list;  (* closed-loop RNG positions *)
  im_shards : Shard.persisted list;
  im_pending : (int * float * ev) list;  (* by id, open-loop arrivals aside *)
}

(* Each persisted type, declared once. *)
module Codecs = struct
  open Codec

  let named_floats = list (pair string float)

  let request =
    record (fun rq_id rq_tenant rq_kernel rq_user rq_seq rq_arrival_s rq_features ->
        { Workload.rq_id; rq_tenant; rq_kernel; rq_user; rq_seq; rq_arrival_s;
          rq_features })
    |> field int (fun rq -> rq.Workload.rq_id)
    |> field string (fun rq -> rq.Workload.rq_tenant)
    |> field string (fun rq -> rq.Workload.rq_kernel)
    |> field int (fun rq -> rq.Workload.rq_user)
    |> field int (fun rq -> rq.Workload.rq_seq)
    |> field float (fun rq -> rq.Workload.rq_arrival_s)
    |> field named_floats (fun rq -> rq.Workload.rq_features)
    |> seal

  let entry =
    record (fun req requested variant latency_s attempts degraded ok t_done ->
        { Orch.req; requested; variant; latency_s; attempts; degraded; ok; t_done })
    |> field int (fun e -> e.Orch.req)
    |> field string (fun e -> e.Orch.requested)
    |> field string (fun e -> e.Orch.variant)
    |> field float (fun e -> e.Orch.latency_s)
    |> field int (fun e -> e.Orch.attempts)
    |> field bool (fun e -> e.Orch.degraded)
    |> field bool (fun e -> e.Orch.ok)
    |> field float (fun e -> e.Orch.t_done)
    |> seal

  let batch =
    record (fun b_key b_formed_s b_requests ->
        { Batcher.b_key; b_requests; b_formed_s })
    |> field string (fun b -> b.Batcher.b_key)
    |> field float (fun b -> b.Batcher.b_formed_s)
    |> field (list request) (fun b -> b.Batcher.b_requests)
    |> seal

  let ev =
    variant
      [ case "A" request (fun rq -> Ev_arrival rq)
          (function Ev_arrival rq -> Some rq | _ -> None);
        case "C"
          (pair int (triple float batch entry))
          (fun (c_sid, (c_start, c_batch, c_entry)) ->
            Ev_complete { c_sid; c_start; c_batch; c_entry })
          (function
            | Ev_complete { c_sid; c_start; c_batch; c_entry } ->
                Some (c_sid, (c_start, c_batch, c_entry))
            | _ -> None);
        case "F" int (fun sid -> Ev_flush sid)
          (function Ev_flush sid -> Some sid | _ -> None);
        case "S" int (fun sid -> Ev_spawn sid)
          (function Ev_spawn sid -> Some sid | _ -> None);
        case "T" unit (fun () -> Ev_tick) (function Ev_tick -> Some () | _ -> None) ]

  let reason =
    enum (List.map (fun r -> (Admission.reason_name r, r)) Admission.all_reasons)

  let outcome =
    variant
      [ case "ok" unit (fun () -> Served) (function Served -> Some () | _ -> None);
        case "rej" reason (fun r -> Rejected r)
          (function Rejected r -> Some r | _ -> None);
        case "fail" string (fun why -> Failed why)
          (function Failed why -> Some why | _ -> None) ]

  let served =
    record (fun sr_id sr_tenant sr_kernel sr_shard sr_arrival_s sr_done_s
                sr_latency_s sr_outcome sr_batch sr_attempts sr_variant sr_degraded ->
        { sr_id; sr_tenant; sr_kernel; sr_shard; sr_arrival_s; sr_done_s;
          sr_latency_s; sr_outcome; sr_batch; sr_attempts; sr_variant; sr_degraded })
    |> field int (fun x -> x.sr_id)
    |> field string (fun x -> x.sr_tenant)
    |> field string (fun x -> x.sr_kernel)
    |> field int (fun x -> x.sr_shard)
    |> field float (fun x -> x.sr_arrival_s)
    |> field float (fun x -> x.sr_done_s)
    |> field float (fun x -> x.sr_latency_s)
    |> field outcome (fun x -> x.sr_outcome)
    |> field int (fun x -> x.sr_batch)
    |> field int (fun x -> x.sr_attempts)
    |> field string (fun x -> x.sr_variant)
    |> field bool (fun x -> x.sr_degraded)
    |> seal

  let pending = triple int float ev

  (* Replay re-derives each record and byte-compares it against the
     journal. *)
  let journal_record =
    variant
      [ case "E" pending
          (fun (id, at, e) -> Fired (id, at, e))
          (function Fired (id, at, e) -> Some (id, at, e) | Logged _ -> None);
        case "L" served (fun x -> Logged x)
          (function Logged x -> Some x | Fired _ -> None) ]

  let breaker_state =
    enum
      (List.map
         (fun s -> (Breaker.state_name s, s))
         Breaker.[ Closed; Open; Half_open ])

  let breaker =
    record (fun p_state p_failures p_opened_at p_probes p_opens p_transitions ->
        { Breaker.p_state; p_failures; p_opened_at; p_probes; p_opens; p_transitions })
    |> field breaker_state (fun p -> p.Breaker.p_state)
    |> field int (fun p -> p.Breaker.p_failures)
    |> field float (fun p -> p.Breaker.p_opened_at)
    |> field int (fun p -> p.Breaker.p_probes)
    |> field int (fun p -> p.Breaker.p_opens)
    |> field (list (pair float breaker_state)) (fun p -> p.Breaker.p_transitions)
    |> seal

  let point =
    record (fun variant features metrics -> { Knowledge.variant; features; metrics })
    |> field string (fun pt -> pt.Knowledge.variant)
    |> field named_floats (fun pt -> pt.Knowledge.features)
    |> field named_floats (fun pt -> pt.Knowledge.metrics)
    |> seal

  let tuner =
    record (fun p_points p_last_variant p_selections p_switches ->
        { Tuner.p_points; p_last_variant; p_selections; p_switches })
    |> field (list point) (fun p -> p.Tuner.p_points)
    |> field (option string) (fun p -> p.Tuner.p_last_variant)
    |> field int (fun p -> p.Tuner.p_selections)
    |> field int (fun p -> p.Tuner.p_switches)
    |> seal

  let orch =
    record (fun ps_clock ps_fpgas ps_kernels -> { Orch.ps_clock; ps_fpgas; ps_kernels })
    |> field float (fun p -> p.Orch.ps_clock)
    |> field (list (triple int int (list (pair int string)))) (fun p -> p.Orch.ps_fpgas)
    |> field
         (list (triple string tuner (list (pair string breaker))))
         (fun p -> p.Orch.ps_kernels)
    |> seal

  let scaler =
    record (fun p_workers p_requested p_idle_ticks p_spawned p_retired ->
        { Autoscale.p_workers; p_requested; p_idle_ticks; p_spawned; p_retired })
    |> field int (fun p -> p.Autoscale.p_workers)
    |> field int (fun p -> p.Autoscale.p_requested)
    |> field int (fun p -> p.Autoscale.p_idle_ticks)
    |> field int (fun p -> p.Autoscale.p_spawned)
    |> field int (fun p -> p.Autoscale.p_retired)
    |> seal

  let shard =
    record (fun sp_busy sp_inflight sp_served sp_failed sp_batches
                sp_batched_requests sp_peak_workers sp_scaler sp_batcher sp_queue
                sp_orch ->
        { Shard.sp_busy; sp_inflight; sp_served; sp_failed; sp_batches;
          sp_batched_requests; sp_peak_workers; sp_scaler; sp_batcher; sp_queue;
          sp_orch })
    |> field int (fun s -> s.Shard.sp_busy)
    |> field int (fun s -> s.Shard.sp_inflight)
    |> field int (fun s -> s.Shard.sp_served)
    |> field int (fun s -> s.Shard.sp_failed)
    |> field int (fun s -> s.Shard.sp_batches)
    |> field int (fun s -> s.Shard.sp_batched_requests)
    |> field int (fun s -> s.Shard.sp_peak_workers)
    |> field scaler (fun s -> s.Shard.sp_scaler)
    |> field
         (list (triple string float (list request)))
         (fun s -> s.Shard.sp_batcher)
    |> field (list batch) (fun s -> s.Shard.sp_queue)
    |> field orch (fun s -> s.Shard.sp_orch)
    |> seal

  let monitor =
    record (fun ms_events ms_total ms_bad ms_last_t ms_firing ms_alerts ->
        { Slo.ms_events; ms_total; ms_bad; ms_last_t; ms_firing; ms_alerts })
    |> field (list (pair float bool)) (fun m -> m.Slo.ms_events)
    |> field int (fun m -> m.Slo.ms_total)
    |> field int (fun m -> m.Slo.ms_bad)
    |> field float (fun m -> m.Slo.ms_last_t)
    |> field bool (fun m -> m.Slo.ms_firing)
    |> field int (fun m -> m.Slo.ms_alerts)
    |> seal

  let tenant =
    record (fun tp_tenant tp_tokens tp_last tp_admitted tp_rejected ->
        { Admission.tp_tenant; tp_tokens; tp_last; tp_admitted; tp_rejected })
    |> field string (fun t -> t.Admission.tp_tenant)
    |> field float (fun t -> t.Admission.tp_tokens)
    |> field float (fun t -> t.Admission.tp_last)
    |> field int (fun t -> t.Admission.tp_admitted)
    |> field (list (pair reason int)) (fun t -> t.Admission.tp_rejected)
    |> seal

  let snapshot =
    tagged "fabric"
      (record (fun im_now im_ev_seq im_outstanding im_next_id im_reroutes
                   im_failures im_cursor im_opened im_logged im_admission
                   im_monitors im_users im_shards im_pending ->
           { im_now; im_ev_seq; im_outstanding; im_next_id; im_reroutes;
             im_failures; im_cursor; im_opened; im_logged; im_admission;
             im_monitors; im_users; im_shards; im_pending })
      |> field float (fun im -> im.im_now)
      |> field int (fun im -> im.im_ev_seq)
      |> field int (fun im -> im.im_outstanding)
      |> field int (fun im -> im.im_next_id)
      |> field int (fun im -> im.im_reroutes)
      |> field (list (pair int int)) (fun im -> im.im_failures)
      |> field int (fun im -> im.im_cursor)
      |> field int (fun im -> im.im_opened)
      |> field int (fun im -> im.im_logged)
      |> field (list tenant) (fun im -> im.im_admission)
      |> field (list (pair string (list monitor))) (fun im -> im.im_monitors)
      |> field (list int) (fun im -> im.im_users)
      |> field (list shard) (fun im -> im.im_shards)
      |> field (list pending) (fun im -> im.im_pending)
      |> seal)
end

let export st =
  { im_now = Desim.now st.st_sim;
    im_ev_seq = st.st_ev_seq;
    im_outstanding = st.st_outstanding;
    im_next_id = st.st_next_id;
    im_reroutes = st.st_reroutes;
    im_failures =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.st_failures []);
    im_cursor = Balancer.cursor st.st_balancer;
    im_opened = st.st_opened;
    im_logged = st.st_logged;
    im_admission = Admission.export st.st_admission;
    im_monitors =
      List.map
        (fun (name, ms) -> (name, List.map Slo.monitor_export ms))
        st.st_monitors;
    im_users = List.map Workload.user_rng_state st.st_users;
    im_shards = Array.to_list (Array.map Shard.export st.st_shards);
    im_pending =
      Hashtbl.fold (fun id (at, ev) acc -> (id, at, ev) :: acc) st.st_pending []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) }

(* Write a snapshot into a freshly built state (same config / tenants /
   deploy), with what the snapshot leaves out: [arrivals], the open-loop
   stream regenerated from the seed, and [earlier], the journal records
   before the snapshot, which hold the served log.  The caller re-inserts
   the pending events once the handlers exist.  Raises [Codec.Decode]
   when the snapshot does not match this fabric, its stream, its clock or
   its journal, [Invalid_argument] when its orchestrator state does not
   match the deployment. *)
let import st im ~arrivals ~earlier =
  let mismatch what = raise (Codec.Decode (what ^ " mismatch")) in
  let now = im.im_now in
  Desim.warp st.st_sim now;
  st.st_ev_seq <- im.im_ev_seq;
  st.st_outstanding <- im.im_outstanding;
  st.st_next_id <- im.im_next_id;
  st.st_reroutes <- im.im_reroutes;
  Hashtbl.reset st.st_failures;
  List.iter (fun (k, v) -> Hashtbl.replace st.st_failures k v) im.im_failures;
  Balancer.set_cursor st.st_balancer im.im_cursor;
  (* the fired open-loop arrivals are a prefix of the stream, and the
     snapshot's clock lies between the last of them and the next *)
  let opened = im.im_opened and n_open = Array.length arrivals in
  let arrival_s i = arrivals.(i).Workload.rq_arrival_s in
  if
    opened < 0 || opened > n_open
    || (opened > 0 && arrival_s (opened - 1) > now)
    || (opened < n_open && arrival_s opened < now)
  then mismatch "open-loop arrival cursor";
  st.st_opened <- opened;
  st.st_arrivals_pending <-
    n_open - opened
    + List.length
        (List.filter
           (function _, _, Ev_arrival _ -> true | _ -> false)
           im.im_pending);
  List.iter
    (fun r ->
      match Codec.decode Codecs.journal_record r with
      | Logged x ->
          if x.sr_done_s > now then mismatch "served-log clock";
          st.st_log <- x :: st.st_log;
          st.st_logged <- st.st_logged + 1
      | Fired _ -> ())
    earlier;
  if st.st_logged <> im.im_logged then mismatch "served-log count";
  Admission.import st.st_admission im.im_admission;
  if List.compare_lengths im.im_monitors st.st_monitors <> 0 then
    mismatch "tenant/monitor population";
  List.iter2
    (fun (name, ms) (got, states) ->
      if not (String.equal got name) then mismatch ("monitor tenant " ^ got);
      if List.compare_lengths ms states <> 0 then mismatch "monitor count";
      List.iter2 Slo.monitor_import ms states)
    st.st_monitors im.im_monitors;
  if List.compare_lengths im.im_users st.st_users <> 0 then
    mismatch "closed-user population";
  List.iter2 Workload.set_user_rng_state st.st_users im.im_users;
  if List.length im.im_shards <> Array.length st.st_shards then
    mismatch "shard count";
  List.iteri (fun sid p -> Shard.import st.st_shards.(sid) p) im.im_shards

(* ---- the event loop ------------------------------------------------------------- *)

(* WAL discipline: a record is durable before its effects happen.  A
   resumed store verifies each re-derived record against its journal tail
   instead, then appends to the same on-disk segment once the tail runs
   dry. *)
let journal rv record =
  let t0 = Unix.gettimeofday () in
  Store.log rv.rv_store Codecs.journal_record record;
  let s = rv.rv_store in
  s.Store.work_s <- s.Store.work_s +. (Unix.gettimeofday () -. t0)

let write_snapshot st rv ~index =
  let t0 = Unix.gettimeofday () in
  Store.write_snapshot rv.rv_store ~index (Codec.encode Codecs.snapshot (export st));
  let s = rv.rv_store in
  s.Store.work_s <- s.Store.work_s +. (Unix.gettimeofday () -. t0)

(* Resolve one request exactly once: log it, feed the tenant's SLO
   monitors (service outcomes only — rejections are accounted at the
   door, not against the service SLOs), keep the closed-loop user going. *)
let rec resolve st (rq : Workload.request) ~shard ~outcome ~batch ~variant
    ~degraded =
  let now = Desim.now st.st_sim in
  let attempts =
    match Hashtbl.find_opt st.st_failures rq.Workload.rq_id with
    | Some n ->
        Hashtbl.remove st.st_failures rq.Workload.rq_id;
        1 + n
    | None -> 1
  in
  let latency =
    match outcome with
    | Rejected _ -> 0.0
    | Served | Failed _ -> now -. rq.Workload.rq_arrival_s
  in
  let entry =
    { sr_id = rq.Workload.rq_id; sr_tenant = rq.Workload.rq_tenant;
      sr_kernel = rq.Workload.rq_kernel; sr_shard = shard;
      sr_arrival_s = rq.Workload.rq_arrival_s; sr_done_s = now;
      sr_latency_s = latency; sr_outcome = outcome; sr_batch = batch;
      sr_attempts = attempts; sr_variant = variant; sr_degraded = degraded }
  in
  st.st_log <- entry :: st.st_log;
  st.st_logged <- st.st_logged + 1;
  (match st.st_recovery with
  | Some rv -> journal rv (Logged entry)
  | None -> ());
  (match outcome with
  | Served ->
      Metrics.inc
        (counter st ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
           "serving_served_total");
      Metrics.observe
        (Metrics.histogram ~registry:st.st_registry
           ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
           "serving_latency_s")
        latency;
      List.iter
        (fun m -> Slo.observe m ~now ~latency_s:latency ~ok:true ())
        (tenant_monitors st rq.Workload.rq_tenant);
      (match st.st_watch with
      | Some w ->
          Watch.observe w ~now
            ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
            "latency" latency
      | None -> ());
      st.st_outstanding <- st.st_outstanding - 1
  | Failed _ ->
      Metrics.inc
        (counter st ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
           "serving_failed_total");
      List.iter
        (fun m -> Slo.observe m ~now ~latency_s:latency ~ok:false ())
        (tenant_monitors st rq.Workload.rq_tenant);
      st.st_outstanding <- st.st_outstanding - 1
  | Rejected reason ->
      Metrics.inc
        (counter st
           ~labels:
             [ ("tenant", rq.Workload.rq_tenant);
               ("reason", Admission.reason_name reason) ]
           "serving_shed_total"));
  (* closed-loop continuation: the user thinks, then asks again *)
  if rq.Workload.rq_user >= 0 then
    match
      Hashtbl.find_opt st.st_user_of (rq.Workload.rq_tenant, rq.Workload.rq_user)
    with
    | None -> ()
    | Some u ->
        let t_next = now +. Workload.next_think u in
        if t_next < st.st_horizon then begin
          let seq = rq.Workload.rq_seq + 1 in
          let next =
            { Workload.rq_id = st.st_next_id;
              rq_tenant = rq.Workload.rq_tenant;
              rq_kernel = rq.Workload.rq_kernel;
              rq_user = rq.Workload.rq_user; rq_seq = seq;
              rq_arrival_s = t_next;
              rq_features = Workload.user_features u seq }
          in
          st.st_next_id <- st.st_next_id + 1;
          st.st_arrivals_pending <- st.st_arrivals_pending + 1;
          sched st ~at:t_next (Ev_arrival next)
        end

(* Route and enqueue one request.  [fresh] arrivals pass admission;
   re-routed requests were already admitted.  Unroutable re-routes fail
   (they hold no queue slot anywhere), unroutable fresh arrivals are shed
   with a typed reason. *)
and handle_arrival st (rq : Workload.request) ~fresh =
  let now = Desim.now st.st_sim in
  if fresh then begin
    st.st_arrivals_pending <- st.st_arrivals_pending - 1;
    Metrics.inc
      (counter st ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
         "serving_requests_total")
  end;
  let admitted =
    if not fresh then true
    else
      match Admission.decide st.st_admission ~tenant:rq.Workload.rq_tenant ~now with
      | Admission.Admit ->
          st.st_outstanding <- st.st_outstanding + 1;
          true
      | Admission.Reject reason ->
          resolve st rq ~shard:(-1) ~outcome:(Rejected reason) ~batch:0
            ~variant:"-" ~degraded:false;
          false
  in
  if admitted then begin
    match
      Balancer.route st.st_balancer ~tenant:rq.Workload.rq_tenant
        ~routable:(fun sid -> routable st sid ~now)
        ~outstanding:(fun sid -> Shard.outstanding st.st_shards.(sid))
    with
    | Some sid -> enqueue st sid rq
    | None ->
        let any_healthy =
          let ok = ref false in
          for sid = 0 to st.st_config.n_shards - 1 do
            if
              shard_alive st sid ~now
              && not (Shard.draining st.st_shards.(sid))
            then ok := true
          done;
          !ok
        in
        let reason =
          if any_healthy then Admission.Overloaded else Admission.Unavailable
        in
        if fresh then begin
          (* hand the slot back: the request never entered a queue *)
          Admission.note_rejection st.st_admission
            ~tenant:rq.Workload.rq_tenant reason;
          st.st_outstanding <- st.st_outstanding - 1;
          resolve st rq ~shard:(-1) ~outcome:(Rejected reason) ~batch:0
            ~variant:"-" ~degraded:false
        end
        else
          resolve st rq ~shard:(-1)
            ~outcome:(Failed (Admission.reason_name reason)) ~batch:0
            ~variant:"-" ~degraded:false
  end

and enqueue st sid (rq : Workload.request) =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  (match Batcher.add shard.Shard.s_batcher ~now rq with
  | Some batch -> Queue.push batch shard.Shard.s_queue
  | None ->
      (* arm the deadline flush for this arrival; [flush_due] is
         idempotent so over-arming is harmless *)
      if st.st_config.batcher.Batcher.max_delay_s > 0.0 then
        sched st
          ~at:(now +. st.st_config.batcher.Batcher.max_delay_s)
          (Ev_flush sid));
  dispatch st sid

and deadline_flush st sid =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  List.iter
    (fun b -> Queue.push b shard.Shard.s_queue)
    (Batcher.flush_due shard.Shard.s_batcher ~now);
  dispatch st sid

(* Start batches while the shard has free workers.  An idle worker drains
   the batcher greedily (no point waiting for a deadline with capacity to
   spare). *)
and dispatch st sid =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  if shard_alive st sid ~now then begin
    let continue = ref true in
    while !continue && shard.Shard.s_busy < Autoscale.workers shard.Shard.s_scaler do
      let next =
        if not (Queue.is_empty shard.Shard.s_queue) then
          Some (Queue.pop shard.Shard.s_queue)
        else Batcher.flush_oldest shard.Shard.s_batcher ~now
      in
      match next with
      | None -> continue := false
      | Some batch -> execute st sid batch
    done
  end

(* Execute one batch: the shard's orchestrator measures the
   single-request service time (fault verdicts and breaker feedback
   included), the batcher's amortization model scales it to the batch,
   and the completion lands back on the fabric clock. *)
and execute st sid (batch : Batcher.batch) =
  let shard = st.st_shards.(sid) in
  let size = Batcher.size batch in
  shard.Shard.s_busy <- shard.Shard.s_busy + 1;
  shard.Shard.s_inflight <- shard.Shard.s_inflight + size;
  let start = Desim.now st.st_sim in
  let r0 = List.hd batch.Batcher.b_requests in
  let orch = shard.Shard.s_orch in
  let dk = Orch.find_kernel orch r0.Workload.rq_kernel in
  let fault_key = r0.Workload.rq_id + (sid * 1_000_003) in
  let fail ~req:_ ~variant ~attempt =
    Faults.transient st.st_config.faults ~task:fault_key ~attempt
    || (List.mem_assoc variant dk.Orch.breakers
       && Faults.fpga_transient st.st_config.faults ~task:fault_key ~attempt)
  in
  let entry =
    match
      Orch.serve orch ~kernel:r0.Workload.rq_kernel ~n:1
        ~policy:st.st_config.orch_policy
        ~features:(fun _ -> r0.Workload.rq_features)
        ~fail ~max_attempts:st.st_config.orch_max_attempts ()
    with
    | [ e ] -> e
    | _ -> assert false
  in
  let t_batch =
    Batcher.service_time st.st_config.batcher
      ~single_s:entry.Orch.latency_s ~size
  in
  sched st ~at:(start +. t_batch)
    (Ev_complete { c_sid = sid; c_start = start; c_batch = batch;
                   c_entry = entry })

and complete st sid (batch : Batcher.batch) ~start (entry : Orch.request_log) =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  let size = Batcher.size batch in
  shard.Shard.s_busy <- shard.Shard.s_busy - 1;
  shard.Shard.s_inflight <- shard.Shard.s_inflight - size;
  shard.Shard.s_batches <- shard.Shard.s_batches + 1;
  if size > 1 then
    shard.Shard.s_batched_requests <- shard.Shard.s_batched_requests + size;
  let crashed =
    Faults.down_between st.st_config.faults ~node:shard.Shard.s_name ~t0:start
      ~t1:now
  in
  let ok = entry.Orch.ok && not crashed in
  if ok then begin
    shard.Shard.s_served <- shard.Shard.s_served + size;
    List.iter
      (fun rq ->
        resolve st rq ~shard:sid ~outcome:Served ~batch:size
          ~variant:entry.Orch.variant ~degraded:entry.Orch.degraded)
      batch.Batcher.b_requests
  end
  else begin
    shard.Shard.s_failed <- shard.Shard.s_failed + size;
    let reason = if crashed then "shard-crash" else "execution-failed" in
    List.iter
      (fun (rq : Workload.request) ->
        let failures =
          1 + Option.value ~default:0 (Hashtbl.find_opt st.st_failures rq.Workload.rq_id)
        in
        Hashtbl.replace st.st_failures rq.Workload.rq_id failures;
        if failures <= st.st_config.max_reroutes then begin
          st.st_reroutes <- st.st_reroutes + 1;
          handle_arrival st rq ~fresh:false
        end
        else
          resolve st rq ~shard:sid ~outcome:(Failed reason) ~batch:size
            ~variant:entry.Orch.variant ~degraded:entry.Orch.degraded)
      batch.Batcher.b_requests
  end;
  dispatch st sid

(* One control tick: drain dead/draining shards to their siblings, apply
   the allocation controller, re-arm while the run is live, and take a
   snapshot at the boundary (pending events then include the next tick,
   so a restored run keeps ticking). *)
and tick st =
  let now = Desim.now st.st_sim in
  Array.iteri
    (fun sid shard ->
      if (not (shard_alive st sid ~now)) || Shard.draining shard then begin
        (* evacuate queued work; in-flight batches fail on their own *)
        let evacuees = ref [] in
        Queue.iter
          (fun (b : Batcher.batch) ->
            evacuees := List.rev_append b.Batcher.b_requests !evacuees)
          shard.Shard.s_queue;
        Queue.clear shard.Shard.s_queue;
        let rec drain_batcher () =
          match Batcher.flush_oldest shard.Shard.s_batcher ~now with
          | Some b ->
              evacuees := List.rev_append b.Batcher.b_requests !evacuees;
              drain_batcher ()
          | None -> ()
        in
        drain_batcher ();
        List.iter
          (fun rq -> handle_arrival st rq ~fresh:false)
          (List.rev !evacuees)
      end
      else begin
        match
          Autoscale.tick shard.Shard.s_scaler ~depth:(Shard.depth shard)
            ~busy:shard.Shard.s_busy
            ~backlog_age_s:(Shard.backlog_age shard ~now)
        with
        | Autoscale.Spawn n ->
            for _ = 1 to n do
              sched st
                ~at:(now +. st.st_config.autoscale.Autoscale.spawn_delay_s)
                (Ev_spawn sid)
            done
        | Autoscale.Retire | Autoscale.Hold -> ()
      end)
    st.st_shards;
  if st.st_outstanding > 0 || st.st_arrivals_pending > 0 then
    sched st ~at:(now +. st.st_config.autoscale.Autoscale.tick_s) Ev_tick;
  (* piggyback the watch scrape on the control tick: no new event types,
     no schedule perturbation — the journal and the run are unchanged *)
  (match st.st_watch with
  | Some w -> Watch.maybe_tick w ~now
  | None -> ());
  maybe_snapshot st

and worker_up st sid =
  let shard = st.st_shards.(sid) in
  Autoscale.worker_up shard.Shard.s_scaler;
  shard.Shard.s_peak_workers <-
    max shard.Shard.s_peak_workers (Autoscale.workers shard.Shard.s_scaler);
  dispatch st sid

and perform st = function
  | Ev_arrival rq -> handle_arrival st rq ~fresh:true
  | Ev_complete { c_sid; c_start; c_batch; c_entry } ->
      complete st c_sid c_batch ~start:c_start c_entry
  | Ev_flush sid -> deadline_flush st sid
  | Ev_spawn sid -> worker_up st sid
  | Ev_tick -> tick st

(* Desim fires an event at exactly its scheduled time, so [now] is the
   time it was scheduled for. *)
and fire st id ev =
  Hashtbl.remove st.st_pending id;
  (match st.st_recovery with
  | Some rv -> journal rv (Fired (id, Desim.now st.st_sim, ev))
  | None -> ());
  perform st ev

and sched st ~at ev =
  let id = st.st_ev_seq in
  st.st_ev_seq <- id + 1;
  pend st id ~at ev

and pend st id ~at ev =
  Hashtbl.replace st.st_pending id (at, ev);
  Desim.at st.st_sim at (fun () -> fire st id ev)

(* Open-loop arrival [i] is event [i + 1] (the genesis tick is event 0).
   The stream is a function of the seed, tenants and horizon, and its
   arrivals fire in id order, so they stay out of [st_pending]: a
   snapshot counts the fired ones and [resume] regenerates the rest. *)
and sched_open st (rq : Workload.request) =
  Desim.at st.st_sim rq.Workload.rq_arrival_s (fun () ->
      st.st_opened <- st.st_opened + 1;
      fire st (rq.Workload.rq_id + 1) (Ev_arrival rq))

and maybe_snapshot st =
  match st.st_recovery with
  | None -> ()
  | Some rv ->
      let now = Desim.now st.st_sim in
      if now -. st.st_last_snap >= rv.rv_snapshot_every_s then begin
        st.st_last_snap <- now;
        (* no snapshot while replaying: the journal already covers it *)
        if not (Store.replaying rv.rv_store) then begin
          st.st_snap_index <- st.st_snap_index + 1;
          write_snapshot st rv ~index:st.st_snap_index
        end
      end

let instantiate_slos config tenant =
  List.map
    (fun (s : Slo.spec) ->
      { s with Slo.slo_name = tenant ^ "/" ^ s.Slo.slo_name })
    config.tenant_slos

(* Build a fresh fabric — shards deployed, monitors and admission wired,
   nothing scheduled yet.  [run] populates it with the workload;
   [resume] overwrites it from a snapshot. *)
let mk_state ~registry config ~deploy ~tenants ~horizon ~recovery ~watch =
  if config.n_shards <= 0 then invalid_arg "Fabric.run: n_shards <= 0";
  if config.max_reroutes < 0 then invalid_arg "Fabric.run: max_reroutes < 0";
  let sim = Desim.create () in
  let shards =
    Array.init config.n_shards (fun id ->
        Shard.create ~id ~batcher:config.batcher ~autoscale:config.autoscale
          ~deploy ())
  in
  let tenant_names = List.map (fun t -> t.Workload.t_name) tenants in
  let monitors =
    List.map
      (fun name ->
        ( name,
          List.map (Slo.monitor ~alert:config.alert)
            (instantiate_slos config name) ))
      tenant_names
  in
  let admission =
    Admission.create config.admission ~tenants:tenant_names
      ~monitors:(fun name ->
        Option.value ~default:[] (List.assoc_opt name monitors))
  in
  let users = Workload.closed_users ~seed:config.seed tenants in
  let user_of = Hashtbl.create (List.length users) in
  (* with a repeated tenant name, the first user with a key serves it *)
  List.iter
    (fun u ->
      let key = (Workload.user_tenant u, Workload.user_index u) in
      if not (Hashtbl.mem user_of key) then Hashtbl.add user_of key u)
    users;
  { st_config = config; st_sim = sim; st_shards = shards;
    st_balancer = Balancer.create config.balancer ~n_shards:config.n_shards;
    st_admission = admission; st_monitors = monitors; st_users = users;
    st_user_of = user_of;
    st_horizon = horizon; st_registry = registry; st_log = []; st_logged = 0;
    st_outstanding = 0; st_arrivals_pending = 0; st_next_id = 0;
    st_reroutes = 0; st_failures = Hashtbl.create 64;
    st_recovery = recovery;
    st_ev_seq = 0; st_opened = 0;
    st_pending = Hashtbl.create 64; st_last_snap = 0.0;
    st_snap_index = 0; st_watch = watch }

(* Register what the fabric exposes to a watch: the whole metrics
   registry plus live control-state gauges (queue depth, busy workers,
   outstanding, live shards) sampled at scrape time.  Read-only by
   construction — the closures only inspect [st]. *)
let attach_watch st w =
  Watch.add_source w (Scrape.of_registry st.st_registry);
  Watch.add_source w
    (Scrape.of_fn ~name:"fabric" (fun ~now ->
         let depth = ref 0 and busy = ref 0 and alive = ref 0 in
         Array.iteri
           (fun sid shard ->
             depth := !depth + Shard.depth shard;
             busy := !busy + shard.Shard.s_busy;
             if shard_alive st sid ~now then incr alive)
           st.st_shards;
         [ ("fabric:queue_depth", [], float_of_int !depth);
           ("fabric:busy_workers", [], float_of_int !busy);
           ("fabric:alive_shards", [], float_of_int !alive);
           ("fabric:outstanding", [], float_of_int st.st_outstanding) ]))

(* Assemble the result after the simulation drains. *)
let finish st =
  let config = st.st_config in
  let registry = st.st_registry in
  let shards = st.st_shards in
  let horizon = st.st_horizon in
  let tenant_names = List.map fst st.st_monitors in
  let log =
    List.sort (fun a b -> compare a.sr_id b.sr_id) (List.rev st.st_log)
  in
  let makespan =
    List.fold_left (fun acc r -> Float.max acc r.sr_done_s) 0.0 log
  in
  let tenant_report name =
    let mine = List.filter (fun r -> String.equal r.sr_tenant name) log in
    let outcomes =
      List.filter_map
        (fun r ->
          match r.sr_outcome with
          | Served ->
              Some
                { Slo.o_t_s = r.sr_done_s; o_ok = true;
                  o_latency_s = r.sr_latency_s }
          | Failed _ ->
              Some
                { Slo.o_t_s = r.sr_done_s; o_ok = false;
                  o_latency_s = r.sr_latency_s }
          | Rejected _ -> None)
        mine
    in
    let count p = List.length (List.filter p mine) in
    { tr_tenant = name;
      tr_requests = List.length mine;
      tr_served = count (fun r -> r.sr_outcome = Served);
      tr_failed =
        count (fun r -> match r.sr_outcome with Failed _ -> true | _ -> false);
      tr_shed = Admission.rejections_by_reason st.st_admission ~tenant:name;
      tr_slos = Slo.evaluate_all (instantiate_slos config name) outcomes;
      tr_alerts =
        List.fold_left
          (fun acc m -> acc + Slo.alerts m)
          0
          (tenant_monitors st name) }
  in
  let shard_report (s : Shard.t) =
    { sh_id = s.Shard.s_id; sh_served = s.Shard.s_served;
      sh_failed = s.Shard.s_failed; sh_batches = s.Shard.s_batches;
      sh_batched_requests = s.Shard.s_batched_requests;
      sh_workers = Autoscale.workers s.Shard.s_scaler;
      sh_peak_workers = s.Shard.s_peak_workers }
  in
  let spawned =
    Array.fold_left
      (fun acc s -> acc + Autoscale.spawned_total s.Shard.s_scaler)
      0 shards
  and retired =
    Array.fold_left
      (fun acc s -> acc + Autoscale.retired_total s.Shard.s_scaler)
      0 shards
  in
  (* end-of-run fabric gauges *)
  Array.iter
    (fun (s : Shard.t) ->
      let labels = [ ("shard", s.Shard.s_name) ] in
      let g name v = Metrics.set (Metrics.gauge ~registry ~labels name) v in
      g "serving_workers" (float_of_int (Autoscale.workers s.Shard.s_scaler));
      g "serving_peak_workers" (float_of_int s.Shard.s_peak_workers);
      g "serving_shard_served" (float_of_int s.Shard.s_served);
      g "serving_shard_failed" (float_of_int s.Shard.s_failed);
      g "serving_shard_batches" (float_of_int s.Shard.s_batches))
    shards;
  (* recovery cost/health gauges; lost work and restore cost land from
     [resume] itself *)
  (match st.st_recovery with
  | None -> ()
  | Some rv ->
      Store.flush rv.rv_store;
      let g name v = Metrics.set (Metrics.gauge ~registry name) v in
      g "recovery_journal_records"
        (float_of_int rv.rv_store.Store.records_written);
      g "recovery_journal_bytes" (float_of_int rv.rv_store.Store.journal_bytes);
      g "recovery_snapshots" (float_of_int rv.rv_store.Store.snapshots_written);
      g "recovery_snapshot_bytes"
        (float_of_int rv.rv_store.Store.snapshot_bytes);
      g "recovery_replayed_events" (float_of_int rv.rv_store.Store.replayed));
  { f_config = config; f_horizon_s = horizon; f_makespan_s = makespan;
    f_log = log; f_tenants = List.map tenant_report tenant_names;
    f_shards = Array.to_list (Array.map shard_report shards);
    f_spawned = spawned; f_retired = retired; f_reroutes = st.st_reroutes }

(* A NaN horizon stops every closed-loop user after its first request,
   and an infinite one never ends the run. *)
let check_horizon fn horizon =
  if not (Float.is_finite horizon && horizon > 0.0) then
    invalid_arg (fn ^ ": horizon must be finite and > 0")

let run ?(registry = Metrics.default) ?recovery ?watch config ~deploy ~tenants
    ~horizon =
  check_horizon "Fabric.run" horizon;
  let st = mk_state ~registry config ~deploy ~tenants ~horizon ~recovery ~watch in
  (match watch with Some w -> attach_watch st w | None -> ());
  (* the genesis tick is event 0, so a tick at t=0 still precedes any
     t=0 arrivals, matching the historical synchronous first tick *)
  sched st ~at:0.0 Ev_tick;
  let open_requests = Workload.generate ~seed:config.seed ~horizon tenants in
  let n_open = List.length open_requests in
  List.iter (sched_open st) open_requests;
  st.st_ev_seq <- st.st_ev_seq + n_open;
  st.st_next_id <- n_open;
  st.st_arrivals_pending <- n_open;
  List.iteri
    (fun i u ->
      let rq =
        { Workload.rq_id = st.st_next_id + i;
          rq_tenant = Workload.user_tenant u;
          rq_kernel = Workload.user_kernel u;
          rq_user = Workload.user_index u; rq_seq = 0;
          rq_arrival_s = Workload.first_arrival u;
          rq_features = Workload.user_features u 0 }
      in
      st.st_arrivals_pending <- st.st_arrivals_pending + 1;
      sched st ~at:(Workload.first_arrival u) (Ev_arrival rq))
    st.st_users;
  st.st_next_id <- st.st_next_id + List.length st.st_users;
  (* genesis snapshot: even a crash before the first tick boundary can
     restore (and will replay the journal from t=0) *)
  (match recovery with
  | Some rv -> write_snapshot st rv ~index:0
  | None -> ());
  Desim.run st.st_sim;
  let result = finish st in
  (* one last scrape after [finish] so the end-of-run gauges reach the
     dashboard *)
  (match watch with
  | Some w -> ignore (Watch.tick w ~now:(Desim.now st.st_sim))
  | None -> ());
  result

(* Restore from the newest valid snapshot in the store and drive the run
   to completion: replay-verify the journal tail, then continue live.
   The result must be byte-identical (render_log / render_slos /
   render_summary) to the same-seed uninterrupted run. *)
let resume ?(registry = Metrics.default) ~recovery config ~deploy ~tenants
    ~horizon =
  check_horizon "Fabric.resume" horizon;
  let t0_wall = Sys.time () in
  let st =
    mk_state ~registry config ~deploy ~tenants ~horizon
      ~recovery:(Some recovery) ~watch:None
  in
  let plan = Store.plan_resume recovery.rv_store in
  let corrupt why = raise (Store.Recovery_error (Store.Corrupt why)) in
  (try
     let image = Codec.decode Codecs.snapshot plan.Store.r_state in
     let arrivals =
       Array.of_list (Workload.generate ~seed:config.seed ~horizon tenants)
     in
     import st image ~arrivals ~earlier:plan.Store.r_earlier;
     (* re-insert pending events ascending by id, the unfired open-loop
        arrivals among them: id order is original insertion order, so
        Desim's (time, seq) tie-breaking is preserved; an event before
        the restored clock is refused *)
     let n_open = Array.length arrivals in
     let rec reinsert pending i =
       match pending with
       | (id, at, ev) :: rest when i = n_open || id <= i ->
           pend st id ~at ev;
           reinsert rest i
       | _ when i < n_open ->
           sched_open st arrivals.(i);
           reinsert pending (i + 1)
       | _ -> ()
     in
     reinsert image.im_pending image.im_opened
   with
  | Codec.Decode why -> corrupt ("snapshot schema: " ^ why)
  | Invalid_argument why -> corrupt ("snapshot does not fit this fabric: " ^ why));
  st.st_snap_index <- plan.Store.r_next_snapshot_index - 1;
  st.st_last_snap <- Desim.now st.st_sim;
  Desim.run st.st_sim;
  let result = finish st in
  let g name v = Metrics.set (Metrics.gauge ~registry name) v in
  g "recovery_restore_cpu_s" (Sys.time () -. t0_wall);
  g "recovery_resume_snapshot" (float_of_int plan.Store.r_index);
  g "recovery_fallback_snapshots" (float_of_int plan.Store.r_fallbacks);
  g "recovery_lost_records" (if plan.Store.r_torn then 1.0 else 0.0);
  ( result,
    { rr_snapshot_index = plan.Store.r_index;
      rr_fallbacks = plan.Store.r_fallbacks;
      rr_skipped =
        List.map
          (fun (i, e) -> (i, Store.error_to_string e))
          plan.Store.r_skipped;
      rr_replayed = recovery.rv_store.Store.replayed;
      rr_torn_tail = plan.Store.r_torn } )

(* ---- summary accessors ---------------------------------------------------------- *)

let served_ok r =
  List.length (List.filter (fun x -> x.sr_outcome = Served) r.f_log)

let failed r =
  List.length
    (List.filter
       (fun x -> match x.sr_outcome with Failed _ -> true | _ -> false)
       r.f_log)

let shed r =
  List.length
    (List.filter
       (fun x -> match x.sr_outcome with Rejected _ -> true | _ -> false)
       r.f_log)

let availability r =
  let ok = served_ok r and bad = failed r in
  if ok + bad = 0 then 1.0
  else float_of_int ok /. float_of_int (ok + bad)

let throughput_rps r =
  if r.f_horizon_s <= 0.0 then 0.0
  else float_of_int (served_ok r) /. r.f_horizon_s

let latencies r =
  List.filter_map
    (fun x -> if x.sr_outcome = Served then Some x.sr_latency_s else None)
    (List.sort (fun a b -> compare a.sr_done_s b.sr_done_s) r.f_log)

let latency_quantile r q = Slo.exact_quantile (latencies r) q

let batched_requests r =
  List.fold_left
    (fun acc s -> acc + s.sh_batched_requests)
    0 r.f_shards

(* ---- deterministic rendering ---------------------------------------------------- *)

let outcome_name = function
  | Served -> "served"
  | Rejected reason -> "rejected:" ^ Admission.reason_name reason
  | Failed why -> "failed:" ^ why

let render_log r =
  let buf = Buffer.create (64 * List.length r.f_log) in
  List.iter
    (fun x ->
      Buffer.add_string buf
        (Printf.sprintf
           "#%06d t=%s k=%s shard=%d arr=%.9f done=%.9f lat=%.9f batch=%d \
            att=%d var=%s deg=%b %s\n"
           x.sr_id x.sr_tenant x.sr_kernel x.sr_shard x.sr_arrival_s
           x.sr_done_s x.sr_latency_s x.sr_batch x.sr_attempts x.sr_variant
           x.sr_degraded (outcome_name x.sr_outcome)))
    r.f_log;
  Buffer.contents buf

let render_slos r =
  let buf = Buffer.create 512 in
  List.iter
    (fun tr ->
      List.iter
        (fun (res : Slo.result) ->
          Buffer.add_string buf
            (Printf.sprintf "%s kind=%s attained=%.9f target=%.9f met=%b \
                             total=%d bad=%d\n"
               res.Slo.res_name res.Slo.res_kind res.Slo.attained
               res.Slo.target res.Slo.met res.Slo.total res.Slo.bad))
        tr.tr_slos;
      Buffer.add_string buf
        (Printf.sprintf "%s alerts=%d\n" tr.tr_tenant tr.tr_alerts))
    r.f_tenants;
  Buffer.contents buf

let render_summary r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "fabric: %d shard(s), balancer=%s, horizon %.3gs, makespan %.3gs\n"
       r.f_config.n_shards
       (Balancer.policy_name r.f_config.balancer)
       r.f_horizon_s r.f_makespan_s);
  Buffer.add_string buf
    (Printf.sprintf
       "requests: %d total = %d served + %d failed + %d shed | availability \
        %.2f%% | %.0f req/s | p99 %.4gs | %d batched | %d reroutes\n"
       (List.length r.f_log) (served_ok r) (failed r) (shed r)
       (100.0 *. availability r)
       (throughput_rps r)
       (latency_quantile r 0.99)
       (batched_requests r) r.f_reroutes);
  Buffer.add_string buf
    (Printf.sprintf "autoscale: %d spawned, %d retired\n" r.f_spawned
       r.f_retired);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  shard%d: served=%d failed=%d batches=%d workers=%d (peak %d)\n"
           s.sh_id s.sh_served s.sh_failed s.sh_batches s.sh_workers
           s.sh_peak_workers))
    r.f_shards;
  List.iter
    (fun tr ->
      let shed_total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 tr.tr_shed
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-12s requests=%d served=%d failed=%d shed=%d alerts=%d\n"
           tr.tr_tenant tr.tr_requests tr.tr_served tr.tr_failed shed_total
           tr.tr_alerts);
      List.iter
        (fun (res : Slo.result) ->
          Buffer.add_string buf (Fmt.str "    %a\n" Slo.pp_result res))
        tr.tr_slos)
    r.f_tenants;
  Buffer.contents buf

(* ---- demo deployment ------------------------------------------------------------ *)

let demo_deploy ?breaker () orch =
  let estimate =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 8.0 }
  in
  ignore
    (Orch.deploy ?breaker orch ~kname:"mm"
       ~impls:
         [ ("sw", Orch.Sw { flops = 5e8; bytes = 1e5; threads = 2 });
           ("hw",
            Orch.Hw
              { bitstream = "mm"; estimate; in_bytes = 4096; out_bytes = 4096 }) ]
       ~knowledge:
         (Everest_autotune.Knowledge.create "mm"
            [ { Everest_autotune.Knowledge.variant = "sw"; features = [];
                metrics = [ ("time_s", 0.01) ] };
              { Everest_autotune.Knowledge.variant = "hw"; features = [];
                metrics = [ ("time_s", 0.001) ] } ])
       ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s")))
