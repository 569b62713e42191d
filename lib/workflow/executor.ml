(* Plan execution on the simulated platform.

   Each task waits for its inputs, pulls them from a node holding a valid
   copy over the cluster links, runs its chosen implementation on its
   assigned node, and signals completion — the measurable counterpart of
   HyperLoom's distributed executor.

   Fault tolerance (everest_resilience): a [Faults.t] plan injects node
   crash/restart windows, per-attempt transient failures, FPGA transient
   errors and link degradation, all deterministic in the plan seed; a
   [Policy.t] governs recovery — retry budgets with decorrelated-jitter
   backoff, plan-relative timeouts, speculative re-execution of stragglers
   and heartbeat-based death detection.  Outputs lost with a dead node are
   recomputed from lineage.

   Telemetry: every execution attempt opens a span on the tracer (simulated
   clock, one track per node) and every transfer nests a span under the
   pulling task, so the span log is a second, independent account of the run
   that stats can be checked against. *)

open Everest_platform
module Trace = Everest_telemetry.Trace
module Metrics = Everest_telemetry.Metrics
module Faults = Everest_resilience.Faults
module Policy = Everest_resilience.Policy
module Health = Everest_resilience.Health
module Lineage = Everest_resilience.Lineage
module Rng = Everest_parallel.Rng
module Observe = Everest_observe

type stats = {
  makespan : float;
  task_finish : float array;
  bytes_moved : int;
  transfers : int;
  energy_j : float;
  per_node_tasks : (string * int) list;
  retries : int;
  timeouts : int;
  speculative : int;
  recomputed : int;
  span_log : Trace.span list;
  report : Observe.Report.t Lazy.t;
}

exception Execution_failed of { reason : string; partial : stats }

(* ---- trace/stats agreement ------------------------------------------------------ *)

let count_status status spans =
  List.length
    (List.filter
       (fun s -> Trace.attr_string s "status" = Some status)
       spans)

let trace_retries spans = count_status "retried" spans
let trace_tasks_completed spans = count_status "ok" spans

let trace_bytes_moved spans =
  List.fold_left
    (fun acc s ->
      match Trace.attr_int s "bytes" with
      | Some b when String.length s.Trace.name >= 5
                    && String.sub s.Trace.name 0 5 = "xfer:" -> acc + b
      | _ -> acc)
    0 spans

(* ---- run report ----------------------------------------------------------------- *)

(* The analytics hook on [stats]: a lazy report so runs that never ask for
   one pay nothing.  Everything it needs is captured when the stats record
   is built (the run is over by then, so [finish] and the span log are
   final); forcing it runs the span-log analyzer over the DAG and
   reconciles per-node utilization against the engine's queueing
   counters. *)
let build_report ~(plan : Scheduler.plan) ~tracer ~registry ~labels
    ~(cluster : Cluster.t) ~finish ~makespan ~retries ~timeouts ~speculative
    ~recomputed ~bytes_moved ~transfers ~energy_j =
  let dag = plan.Scheduler.dag in
  lazy
    begin
      let tasks_total = Array.length dag.Dag.tasks in
      let tasks_done =
        Array.fold_left (fun n f -> if f >= 0.0 then n + 1 else n) 0 finish
      in
      let waits =
        List.map
          (fun (n : Node.t) ->
            ( n.Node.name,
              Desim.total_wait_s n.Node.cores
              +. List.fold_left
                   (fun acc (f : Node.fpga_dev) ->
                     acc +. Desim.total_wait_s f.Node.slots)
                   0.0 n.Node.fpgas ))
          cluster.Cluster.nodes
      in
      let cp, util =
        Observe.Analyzer.analyze ~horizon:makespan ~finish
          ~deps:(fun i -> dag.Dag.tasks.(i).Dag.inputs)
          ~name:(fun i -> dag.Dag.tasks.(i).Dag.name)
          ~node:(fun i -> plan.Scheduler.assignments.(i).Scheduler.node)
          ~waits tracer
      in
      let quantiles =
        match Metrics.find ~registry ~labels "workflow_task_duration_s" with
        | Some { Metrics.value = Metrics.Histogram h; _ }
          when Metrics.hist_count h > 0 ->
            [ ("p50_s", Metrics.quantile h 0.5);
              ("p90_s", Metrics.quantile h 0.9);
              ("p99_s", Metrics.quantile h 0.99) ]
        | _ -> []
      in
      let counters =
        [ ("retries", float_of_int retries);
          ("timeouts", float_of_int timeouts);
          ("speculative", float_of_int speculative);
          ("recomputed", float_of_int recomputed);
          ("transfers", float_of_int transfers);
          ("bytes_moved", float_of_int bytes_moved);
          ("energy_j", energy_j) ]
      in
      let slos =
        [ Observe.Slo.evaluate_counts
            (Observe.Slo.completion "tasks_completed" 1.0)
            ~total:tasks_total ~bad:(tasks_total - tasks_done) ]
      in
      Observe.Report.make ~name:dag.Dag.dag_name ~policy:plan.Scheduler.policy
        ~tasks_done ~tasks_total ~spans:(Trace.span_count tracer)
        ~dropped:(Trace.dropped tracer) ~makespan_s:makespan ?cp ?util
        ~quantiles ~counters ~slos ()
    end

(* ---- execution ------------------------------------------------------------------ *)

(* Shared attribute lists so the per-span hot path allocates nothing for
   the common cases. *)
let ok_attrs = [ ("status", Trace.S "ok") ]
let recomputed_attrs = [ ("status", Trace.S "recomputed") ]
let timeout_attrs = [ ("status", Trace.S "timeout") ]
let speculative_attrs = [ ("status", Trace.S "speculative") ]

(* The resumable state a checkpoint digests (its snapshot integrity
   anchor): (completions, retries, timeouts), (speculative, recomputed,
   speculation budget), (backoff RNG position, first finish times by
   task, lineage). *)
type checkpoint_state =
  (int * int * int) * (int * int * int)
  * (int * (int * float) list * (int * (string * float) list) list)

let checkpoint_state : checkpoint_state Everest_recovery.Codec.t =
  Everest_recovery.Codec.(
    triple (triple int int int) (triple int int int)
      (triple int (list (pair int float)) (list (pair int (list (pair string float))))))

(* Raised inside the event loop when recovery can no longer make progress;
   caught by [execute] and rethrown as [Execution_failed] with the partial
   stats of the run so far. *)
exception Exhausted of string

(* One execution attempt in flight.  Cancellation is cooperative: the Desim
   events of a cancelled attempt still fire but find the token cancelled and
   stop advancing the task.  The rescue timers (timeout/speculation
   watchdogs) are the exception: they are armed cancellable and revoked the
   moment the attempt terminates, so a 10⁶-task run doesn't retain 2n dead
   watchdog closures in the heap until their fire times. *)
type token = {
  tk_task : int;
  tk_node : Node.t;
  tk_span : Trace.span option;
  mutable tk_cancelled : bool;
  mutable tk_timers : Desim.handle list;
}

(* Run [impl] on [node], then [k].  An FPGA implementation on a node
   without an FPGA degrades explicitly to its CPU fallback. *)
let rec run_impl sim (node : Node.t) (impl : Dag.impl) k =
  match impl with
  | Dag.Cpu { flops; bytes; threads } ->
      Node.run_cpu sim node ~flops ~bytes ~threads k
  | Dag.Fpga { bitstream; estimate; in_bytes; out_bytes } -> (
      match Node.pick_device node with
      | None ->
          run_impl sim node
            (Scheduler.cpu_fallback estimate ~in_bytes ~out_bytes)
            k
      | Some dev ->
          Node.run_fpga sim node dev ~bitstream ~estimate
            ~host_link:(Spec.host_link dev.Node.fspec) ~in_bytes ~out_bytes k)

let execute ?(faults = Faults.none) ?(policy = Policy.default)
    ?(tracer = Trace.noop) ?(registry = Metrics.default) ?(plan_lint = true)
    ?checkpoint (c : Cluster.t) (plan : Scheduler.plan) : stats =
  if plan_lint then Planlint.gate c plan;
  let dag = plan.Scheduler.dag in
  let sim = c.Cluster.sim in
  let labels = [ ("workflow", dag.Dag.dag_name) ] in
  let m_tasks =
    Metrics.counter ~registry ~labels "workflow_tasks_completed_total"
  and m_retries =
    Metrics.counter ~registry ~labels "workflow_task_retries_total"
  and m_timeouts = Metrics.counter ~registry ~labels "workflow_timeouts_total"
  and m_spec = Metrics.counter ~registry ~labels "workflow_speculative_total"
  and m_recomputed =
    Metrics.counter ~registry ~labels "workflow_recomputed_total"
  and m_bytes = Metrics.counter ~registry ~labels "workflow_bytes_moved_total"
  and m_transfers = Metrics.counter ~registry ~labels "workflow_transfers_total"
  and h_task = Metrics.histogram ~registry ~labels "workflow_task_duration_s"
  and h_xfer = Metrics.histogram ~registry ~labels "workflow_transfer_s" in
  let trace_on = not (Trace.is_noop tracer) in
  (* one render track per node, in cluster order, with the node's constant
     span attributes precomputed alongside *)
  let track_info =
    let tracks = Hashtbl.create 16 in
    List.iteri
      (fun i (n : Node.t) ->
        Hashtbl.replace tracks n.Node.name
          (i + 1, [ ("node", Trace.S n.Node.name) ]);
        if trace_on then Trace.name_track tracer (i + 1) n.Node.name)
      c.Cluster.nodes;
    fun name ->
      match Hashtbl.find_opt tracks name with
      | Some info -> info
      | None -> (0, [])
  in
  let dead (node : Node.t) =
    Faults.node_dead faults ~node:node.Node.name ~now:(Desim.now sim)
  in
  (* Capability-aware fallback: a diverted FPGA task prefers a surviving
     FPGA-capable node (paying reconfiguration there) over silently landing
     on a CPU-only one; [exclude] avoids bouncing straight back onto the
     node that just failed when any alternative survives. *)
  let fallback ?(want_fpga = false) ?(exclude = []) () =
    let alive n = not (dead n) in
    let not_ex (n : Node.t) = not (List.mem n.Node.name exclude) in
    let pick p = List.find_opt p c.Cluster.nodes in
    let order =
      if want_fpga then
        [ (fun n -> alive n && not_ex n && Node.has_fpga n);
          (fun n -> alive n && not_ex n);
          (fun n -> alive n && Node.has_fpga n);
          alive ]
      else [ (fun n -> alive n && not_ex n); alive ]
    in
    match List.find_map pick order with
    | Some n -> n
    | None -> raise (Exhausted "every node failed")
  in
  (* Deployment-time configuration: install every planned bitstream on the
     FPGAs of its assigned node (the cloudFPGA shell configures roles when
     resources are allocated, not lazily at first launch). *)
  Array.iter
    (fun (a : Scheduler.assignment) ->
      match a.Scheduler.impl with
      | Dag.Fpga { bitstream; _ } ->
          let node = Cluster.find_node c a.Scheduler.node in
          List.iter (fun dev -> Node.preload dev ~bitstream) node.Node.fpgas
      | Dag.Cpu _ -> ())
    plan.Scheduler.assignments;
  let n = Dag.size dag in
  let finish = Array.make n (-1.0) in
  let remaining_deps =
    Array.map (fun t -> List.length t.Dag.inputs) dag.Dag.tasks
  in
  let attempts = Array.make n 0 in
  let retries_left = Array.make n policy.Policy.max_retries in
  let inflight : token list array = Array.make n [] in
  let prev_delay = Array.make n 0.0 in
  let recomputing = Array.make n false in
  let waiters : (unit -> unit) list array = Array.make n [] in
  let lineage = Lineage.create faults in
  (* Plan-relative deadline base: the planned node's execution estimate is
     the SLA whatever node an attempt actually landed on. *)
  let planned_est =
    lazy
      (Array.map
         (fun (a : Scheduler.assignment) ->
           Scheduler.exec_estimate
             (Cluster.find_node c a.Scheduler.node)
             a.Scheduler.impl)
         plan.Scheduler.assignments)
  in
  let retries = ref 0 in
  let timeouts = ref 0 in
  let speculative = ref 0 in
  let recomputed = ref 0 in
  let spec_budget =
    ref
      (match policy.Policy.speculation with
      | Some s -> s.Policy.max_speculative
      | None -> 0)
  in
  let n_done = ref 0 in
  let health = ref None in
  let want_fpga i =
    match plan.Scheduler.assignments.(i).Scheduler.impl with
    | Dag.Fpga _ -> true
    | Dag.Cpu _ -> false
  in
  let backoff_rng = Rng.create (faults.Faults.seed lxor 0x5EED) in
  (* checkpoint plumbing: [ck_state] digests the resumable state (used as
     the snapshot integrity anchor), [ck_prune] bounds lineage memory at
     snapshot boundaries.  Both are deterministic in the run, so replay
     reproduces them bit-exactly. *)
  let ck_state () =
    let finished = ref [] in
    for i = n - 1 downto 0 do
      if finish.(i) >= 0.0 then finished := (i, finish.(i)) :: !finished
    done;
    Everest_recovery.Codec.encode checkpoint_state
      ( (!n_done, !retries, !timeouts),
        (!speculative, !recomputed, !spec_budget),
        (Rng.state backoff_rng, !finished, Lineage.export lineage) )
  in
  let lineage_gauge = Metrics.gauge ~registry ~labels "workflow_lineage_copies" in
  let ck_prune () =
    let dropped = Lineage.prune lineage ~now:(Desim.now sim) in
    Metrics.set lineage_gauge (float_of_int (Lineage.total_copies lineage));
    dropped
  in
  Option.iter (fun ck -> Checkpoint.start ck ~state:ck_state) checkpoint;
  let drop_token i tk =
    inflight.(i) <- List.filter (fun t -> t != tk) inflight.(i)
  in
  (* revoke an attempt's watchdogs the moment it terminates (no-op on
     already-fired ones) *)
  let cancel_timers tk =
    (match tk.tk_timers with
    | [] -> ()
    | timers -> List.iter (fun h -> Desim.cancel sim h) timers);
    tk.tk_timers <- []
  in
  let rec launch i =
    let a = plan.Scheduler.assignments.(i) in
    let planned = Cluster.find_node c a.Scheduler.node in
    let dst =
      if dead planned then fallback ~want_fpga:(want_fpga i) ()
      else planned
    in
    attempt i ~speculative_run:false ~recompute:false dst
  and attempt i ~speculative_run ~recompute (dst : Node.t) =
    let t = dag.Dag.tasks.(i) in
    let a = plan.Scheduler.assignments.(i) in
    let attempt_no = attempts.(i) in
    attempts.(i) <- attempts.(i) + 1;
    let span =
      if trace_on then begin
        let track, node_attrs = track_info dst.Node.name in
        let attrs =
          if attempt_no = 0 then node_attrs
          else ("attempt", Trace.I attempt_no) :: node_attrs
        in
        let attrs =
          if speculative_run then ("speculative", Trace.B true) :: attrs
          else attrs
        in
        let attrs =
          if recompute then ("recompute", Trace.B true) :: attrs else attrs
        in
        (* the task id ties attempt spans back to the DAG for the report's
           critical-path join; only paid when tracing is on *)
        let attrs = ("task", Trace.I i) :: attrs in
        Some (Trace.start tracer ~track ~attrs ("task:" ^ t.Dag.name))
      end
      else None
    in
    let tk =
      { tk_task = i; tk_node = dst; tk_span = span; tk_cancelled = false;
        tk_timers = [] }
    in
    inflight.(i) <- tk :: inflight.(i);
    let t_start = Desim.now sim in
    (* plan-relative rescue points, armed before the pull so slow transfers
       count toward straggler-ness too; cancellable so a finished attempt
       releases its watchdogs instead of leaving them in the heap *)
    (match policy.Policy.timeout with
    | Some { Policy.timeout_factor; timeout_min_s } ->
        let est = (Lazy.force planned_est).(i) in
        if Float.is_finite est then
          tk.tk_timers <-
            Desim.schedule_cancellable sim
              (Float.max timeout_min_s (timeout_factor *. est))
              (fun () -> rescue_timeout tk)
            :: tk.tk_timers
    | None -> ());
    (match policy.Policy.speculation with
    | Some { Policy.spec_factor; spec_min_s; _ }
      when (not speculative_run) && !spec_budget > 0 ->
        let est = (Lazy.force planned_est).(i) in
        if Float.is_finite est then
          tk.tk_timers <-
            Desim.schedule_cancellable sim
              (Float.max spec_min_s (spec_factor *. est))
              (fun () -> maybe_speculate tk)
            :: tk.tk_timers
    | _ -> ());
    (* pull inputs sequentially (HyperLoom pulls over per-pair connections),
       from whichever node still holds a valid copy *)
    let rec pull inputs k =
      if tk.tk_cancelled then ()
      else
        match inputs with
        | [] -> k ()
        | d :: rest -> (
            match
              Lineage.choose lineage ~task:d ~prefer:dst.Node.name
                ~now:(Desim.now sim)
            with
            | None ->
                (* the producer's output is lost: recompute it, then retry
                   this input *)
                recompute_output d (fun () -> pull inputs k)
            | Some src_name ->
                let src = Cluster.find_node c src_name in
                let bytes = dag.Dag.tasks.(d).Dag.out_bytes in
                let moved =
                  not (src == dst || String.equal src.Node.name dst.Node.name)
                in
                (* src/dst ride in the span name; only [bytes] needs an
                   attribute *)
                let xspan =
                  if trace_on && moved then
                    Some
                      (Trace.start tracer
                         ?parent:(Option.map (fun s -> s.Trace.id) span)
                         ~track:(fst (track_info dst.Node.name))
                         ~attrs:[ ("bytes", Trace.I bytes) ]
                         ("xfer:" ^ src.Node.name ^ "->" ^ dst.Node.name))
                  else None
                in
                let t0 = Desim.now sim in
                let arrived () =
                  if moved then begin
                    Metrics.inc ~by:(float_of_int bytes) m_bytes;
                    Metrics.inc m_transfers;
                    Metrics.observe h_xfer (Desim.now sim -. t0)
                  end;
                  Option.iter (fun s -> Trace.finish tracer s) xspan;
                  Lineage.record_replica lineage ~task:d ~node:dst.Node.name
                    ~now:(Desim.now sim);
                  pull rest k
                in
                Cluster.transfer c ~src ~dst ~bytes arrived)
    in
    pull t.Dag.inputs (fun () ->
        if tk.tk_cancelled then ()
        else begin
          let done_ () =
            if tk.tk_cancelled then ()
            else if dead dst then fail_attempt tk ~reason:"node-death"
            else if
              Faults.transient faults ~task:i ~attempt:attempt_no
              || (want_fpga i
                 && Faults.fpga_transient faults ~task:i ~attempt:attempt_no)
            then fail_attempt tk ~reason:"transient"
            else complete tk ~t_start
          in
          run_impl sim dst a.Scheduler.impl done_
        end)
  and complete tk ~t_start =
    let i = tk.tk_task in
    drop_token i tk;
    cancel_timers tk;
    let now = Desim.now sim in
    Lineage.record_primary lineage ~task:i ~node:tk.tk_node.Node.name ~now;
    let first = finish.(i) < 0.0 in
    if first then begin
      (* WAL: the completion record is durable (or replay-verified)
         before any of its effects land *)
      Option.iter
        (fun ck ->
          Checkpoint.on_complete ck ~task:i ~now ~node:tk.tk_node.Node.name
            ~state:ck_state ~prune:ck_prune)
        checkpoint;
      finish.(i) <- now;
      Metrics.inc m_tasks;
      Metrics.observe h_task (now -. t_start);
      Option.iter (fun s -> Trace.finish tracer ~attrs:ok_attrs s) tk.tk_span;
      (* abandon racing duplicates: the winner's output is authoritative *)
      List.iter
        (fun dup ->
          dup.tk_cancelled <- true;
          cancel_timers dup;
          Option.iter
            (fun s -> Trace.finish tracer ~attrs:speculative_attrs s)
            dup.tk_span)
        inflight.(i);
      inflight.(i) <- [];
      incr n_done;
      if !n_done = n then Option.iter Health.stop !health;
      Dag.iter_consumers dag i (fun s ->
          remaining_deps.(s) <- remaining_deps.(s) - 1;
          if remaining_deps.(s) = 0 then launch s)
    end
    else
      (* a recomputation of an already-finished task: the output is back,
         release the pulls waiting on it *)
      Option.iter
        (fun s -> Trace.finish tracer ~attrs:recomputed_attrs s)
        tk.tk_span;
    if recomputing.(i) then recomputing.(i) <- false;
    let ws = waiters.(i) in
    waiters.(i) <- [];
    List.iter (fun k -> k ()) ws
  and fail_attempt tk ~reason =
    let i = tk.tk_task in
    tk.tk_cancelled <- true;
    drop_token i tk;
    cancel_timers tk;
    incr retries;
    Metrics.inc m_retries;
    Option.iter
      (fun s ->
        Trace.finish tracer
          ~attrs:[ ("status", Trace.S "retried"); ("reason", Trace.S reason) ]
          s)
      tk.tk_span;
    relaunch_or_exhaust i ~exclude:[ tk.tk_node.Node.name ]
  and relaunch_or_exhaust i ~exclude =
    if retries_left.(i) > 0 then begin
      retries_left.(i) <- retries_left.(i) - 1;
      let delay =
        Policy.next_delay policy.Policy.backoff ~rng:backoff_rng
          ~prev:prev_delay.(i)
      in
      prev_delay.(i) <- delay;
      let go () =
        (* pick the node at relaunch time so restarts are honoured *)
        let dst = fallback ~want_fpga:(want_fpga i) ~exclude () in
        attempt i ~speculative_run:false ~recompute:false dst
      in
      if delay > 0.0 then Desim.schedule sim delay go else go ()
    end
    else if inflight.(i) = [] then
      raise
        (Exhausted
           (Printf.sprintf "task %d (%s): retry budget exhausted" i
              dag.Dag.tasks.(i).Dag.name))
  and rescue_timeout tk =
    let i = tk.tk_task in
    if (not tk.tk_cancelled) && finish.(i) < 0.0 && retries_left.(i) > 0
    then begin
      tk.tk_cancelled <- true;
      drop_token i tk;
      cancel_timers tk;
      incr timeouts;
      Metrics.inc m_timeouts;
      Option.iter
        (fun s -> Trace.finish tracer ~attrs:timeout_attrs s)
        tk.tk_span;
      retries_left.(i) <- retries_left.(i) - 1;
      let dst =
        fallback ~want_fpga:(want_fpga i) ~exclude:[ tk.tk_node.Node.name ] ()
      in
      attempt i ~speculative_run:false ~recompute:false dst
    end
  and maybe_speculate tk =
    let i = tk.tk_task in
    if (not tk.tk_cancelled) && finish.(i) < 0.0 && !spec_budget > 0 then begin
      match
        fallback ~want_fpga:(want_fpga i) ~exclude:[ tk.tk_node.Node.name ] ()
      with
      | dup when not (String.equal dup.Node.name tk.tk_node.Node.name) ->
          decr spec_budget;
          incr speculative;
          Metrics.inc m_spec;
          attempt i ~speculative_run:true ~recompute:false dup
      | _ -> ()  (* no alternative node: nothing to speculate on *)
      | exception Exhausted _ -> ()
    end
  and recompute_output d k =
    if
      Lineage.choose lineage ~task:d
        ~prefer:""
        ~now:(Desim.now sim)
      <> None
    then k ()  (* someone else already brought it back *)
    else if recomputing.(d) || inflight.(d) <> [] then
      (* a recomputation (or a racing duplicate) is already under way *)
      waiters.(d) <- k :: waiters.(d)
    else begin
      recomputing.(d) <- true;
      waiters.(d) <- k :: waiters.(d);
      incr recomputed;
      Metrics.inc m_recomputed;
      let dst = fallback ~want_fpga:(want_fpga d) () in
      attempt d ~speculative_run:false ~recompute:true dst
    end
  in
  (* heartbeat monitoring: detect node death within one interval and rescue
     the attempts running there instead of waiting for them to finish *)
  (match policy.Policy.heartbeat_s with
  | None -> ()
  | Some interval ->
      let names = List.map (fun (nd : Node.t) -> nd.Node.name) c.Cluster.nodes in
      health :=
        Some
          (Health.start sim ~faults ~interval ~nodes:names
             ~on_event:(fun ~node ev ->
               match ev with
               | Health.Recovered -> ()
               | Health.Died ->
                   (* rescue every attempt running on the dead node now,
                      instead of waiting for its completion event *)
                   Array.iter
                     (fun tks ->
                       List.iter
                         (fun tk ->
                           if
                             String.equal tk.tk_node.Node.name node
                             && not tk.tk_cancelled
                           then fail_attempt tk ~reason:"heartbeat")
                         tks)
                     (Array.copy inflight))));
  (* the stats of the run so far: the partial stats of a failed run, or
     the final ones *)
  let stats () =
    let makespan = Array.fold_left Float.max 0.0 finish in
    let energy_j = Cluster.total_energy c in
    { makespan;
      task_finish = finish;
      bytes_moved = c.Cluster.bytes_moved;
      transfers = c.Cluster.transfers;
      energy_j;
      per_node_tasks =
        List.map
          (fun (nd : Node.t) -> (nd.Node.name, nd.Node.tasks_run))
          c.Cluster.nodes;
      retries = !retries;
      timeouts = !timeouts;
      speculative = !speculative;
      recomputed = !recomputed;
      span_log = (if trace_on then Trace.spans_rev tracer else []);
      report =
        build_report ~plan ~tracer ~registry ~labels ~cluster:c ~finish
          ~makespan ~retries:!retries ~timeouts:!timeouts
          ~speculative:!speculative ~recomputed:!recomputed
          ~bytes_moved:c.Cluster.bytes_moved ~transfers:c.Cluster.transfers
          ~energy_j }
  in
  let execution_failed reason =
    Execution_failed { reason; partial = stats () }
  in
  (try
     Array.iteri (fun i t -> if t.Dag.inputs = [] then launch i) dag.Dag.tasks;
     Cluster.run c
   with Exhausted reason ->
     Option.iter Health.stop !health;
     raise (execution_failed reason));
  Array.iteri
    (fun i f ->
      if f < 0.0 then
        raise
          (execution_failed (Printf.sprintf "task %d never completed" i)))
    finish;
  let stats = stats () in
  Metrics.set
    (Metrics.gauge ~registry ~labels "workflow_makespan_s")
    stats.makespan;
  Cluster.publish_metrics ~registry c;
  stats

(* Convenience: build a fresh demonstrator, schedule with [policy], run. *)
let run_on_demonstrator ?(cloud_fpgas = 4) ?(edges = 2) ?(endpoints = 4)
    ?faults ?exec_policy ?(tracer = `Noop) ?registry ~policy dag =
  let c = Cluster.everest_demonstrator ~cloud_fpgas ~edges ~endpoints () in
  let tracer =
    match tracer with
    | `Noop -> Trace.noop
    | `Sim ->
        Trace.create ~clock:(fun () -> Desim.now c.Cluster.sim) ()
  in
  match Scheduler.by_name policy with
  | None -> invalid_arg ("unknown scheduling policy " ^ policy)
  | Some f ->
      let plan = f c dag in
      (plan, execute ?faults ?policy:exec_policy ~tracer ?registry c plan)
