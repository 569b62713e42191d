(* The EVEREST command-line tool.

     everest_cli compile [--size N] [--emit ir|sycl|rtl|variants]
         compile the demo tensor pipeline and print the requested artifact
     everest_cli run [--policy P] [--fpgas K] [--kill NODE:T]..
         compile and execute the demo workflow on the simulated
         demonstrator; exhausted recovery exits 1 with a structured error
     everest_cli serve [--shards N] [--seed S] [--balancer P] [--rate RPS]
                       [--horizon T] [--fault-rate R] [--format text|json]
                       [--out F]
         serving-fleet drill: a seeded multi-tenant workload through N
         orchestrator shards behind admission, routing, batching and
         autoscale; exit 1 unless requests are served, availability and
         the SLOs hold, nothing is shed and a rerun is byte-identical
     everest_cli serve --demo
         overload a starved single-worker fleet so the checks fail (exits 1)
     everest_cli recover [--seed S] [--crash-after N] [--snapshot-every T]
         crash-recovery drill: run the journaled serving fabric and the
         checkpointed workflow executor, kill each at a seeded mid-run
         journal record, restore, and byte-compare the resumed reports
         against uninterrupted same-seed runs; exit 1 on any mismatch
     everest_cli recover --demo
         corrupt snapshots (bit-flip, truncation, version skew): each must
         be detected and fallen back over, an all-corrupt store must be
         refused with a typed error (exits 1)
     everest_cli hls [--unroll U] [--dift]
         synthesize the demo kernel and print the HLS report + RTL sketch
     everest_cli telemetry [--trace-out F] [--metrics-out F] [--format t|p]
         run the demonstrator workflow + adaptive serving fully
         instrumented; emit a Chrome trace-event JSON and a metrics dump
     everest_cli chaos [--seed S] [--fault-rate R] [--format text|json]
         deterministic fault-injection drill: run the example workflows
         under a seeded fault plan with the recovery policy on, twice,
         plus a circuit-breaker degradation demo; exit 1 on any failure
     everest_cli lint [FILE..] [--demo] [--examples] [--format text|json]
         run the static-analysis rules over textual IR modules (or the
         seeded-defect / lowered-example modules); exit 1 on errors
     everest_cli observe [--seed S] [--format text|json] [--out F]
         run the stress workflow traced under a seeded fault plan plus an
         SLO-monitored serving phase; print the analytics report (critical
         path, per-node utilization, SLO verdicts); exit 1 if any internal
         consistency check fails or an SLO is violated
     everest_cli observe --demo
         deliberately violate the availability SLO so the burn-rate alert
         fires (exercises the failure path; exits 1)
     everest_cli observe --diff A.json B.json
         diff two saved reports; exit 1 on regressions beyond tolerance
     everest_cli estee [--tasks N] [--family F] [--policy P] [--budget-s T]
         Estee-style scheduler scale smoke: plan (and optionally execute)
         one generated DAG family instance; exit 1 if the wall clock
         exceeds the budget — the CI guard against O(n^2) regressions
     everest_cli plan-lint [--examples] [--family F --tasks N --policy P]
                           [--demo] [--strict] [--format text|json]
         statically sanitize execution plans (EV1xx): structure,
         happens-before, placement capability and SLO feasibility; exit 1
         on errors, --demo seeds one defective plan per class
     everest_cli top [--shards N] [--seed S] [--interval T] [--follow]
                     [--format text|json] [--out F]
         live observability drill: watch a seeded serving run and render
         the dashboard (every scrape tick with --follow); exit 1 on a
         false alarm
     everest_cli top --demo
         kill all but one shard mid-run so the latency step trips the
         CUSUM alert (exits 1)                                           *)

open Cmdliner
module Sdk = Everest.Sdk
module Dsl = Everest_dsl
module TE = Everest_dsl.Tensor_expr
module Tel = Everest_telemetry
module EIr = Everest_ir
module Lint = Everest_analysis.Lint

let demo_graph n =
  let g = Sdk.workflow "demo" in
  let src = Dsl.Dataflow.source g "input" ~bytes:(8 * n * n) in
  let x = TE.input "x" [ n; n ] in
  let mm =
    Dsl.Dataflow.task g "mm" (Dsl.Dataflow.Tensor_kernel (TE.matmul x x))
      ~deps:[ src ]
  in
  let act =
    Dsl.Dataflow.task g "act"
      (Dsl.Dataflow.Tensor_kernel (TE.relu (TE.input "y" [ n; n ])))
      ~deps:[ mm ]
  in
  Dsl.Dataflow.sink g "out" act;
  g

(* ---- compile --------------------------------------------------------------- *)

let compile_cmd =
  let size =
    Arg.(value & opt Drill.positive_int 64 & info [ "size" ] ~docv:"N" ~doc:"Tensor size N×N.")
  in
  let emit =
    Arg.(
      value
      & opt (enum [ ("ir", `Ir); ("sycl", `Sycl); ("variants", `Variants);
                    ("report", `Report) ])
          `Report
      & info [ "emit" ] ~doc:"Artifact to print: ir, sycl, variants, report.")
  in
  let run size emit =
    let app = Sdk.compile (demo_graph size) in
    match emit with
    | `Ir ->
        print_string
          (Everest_ir.Printer.module_to_string app.Everest_compiler.Pipeline.ir)
    | `Sycl ->
        List.iter
          (fun k -> print_string k.Everest_compiler.Pipeline.sycl)
          app.Everest_compiler.Pipeline.kernels
    | `Variants ->
        List.iter
          (fun k ->
            Format.printf "kernel %s:@." k.Everest_compiler.Pipeline.ck_name;
            List.iter
              (fun v -> Format.printf "  %a@." Everest_compiler.Variants.pp v)
              k.Everest_compiler.Pipeline.dse.Everest_compiler.Dse.variants)
          app.Everest_compiler.Pipeline.kernels
    | `Report -> Format.printf "%a" Everest_compiler.Pipeline.report app
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile the demo pipeline.")
    Term.(const run $ size $ emit)

(* ---- run ------------------------------------------------------------------- *)

(* NODE:TIME pairs for --kill, shared by run and telemetry. *)
let node_time_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let node = String.sub s 0 i
        and t = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt t with
        | Some t when node <> "" && Float.is_finite t && t >= 0.0 -> Ok (node, t)
        | _ -> Error (`Msg "expected NODE:TIME, e.g. cf0:0.0001"))
    | None -> Error (`Msg "expected NODE:TIME, e.g. cf0:0.0001")
  in
  let print ppf (n, t) = Format.fprintf ppf "%s:%g" n t in
  Cmdliner.Arg.conv (parse, print)

let run_cmd =
  let policy =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy.")
  in
  let fpgas =
    Arg.(value & opt Drill.count 4 & info [ "fpgas" ] ~doc:"Number of cloudFPGA nodes.")
  in
  let size =
    Arg.(value & opt Drill.positive_int 128 & info [ "size" ] ~docv:"N" ~doc:"Tensor size.")
  in
  let kills =
    Arg.(
      value & opt_all node_time_conv []
      & info [ "kill" ] ~docv:"NODE:T"
          ~doc:"Fail node NODE permanently at simulated time T (repeatable).")
  in
  let retries =
    Arg.(
      value & opt Drill.count 3
      & info [ "retries" ] ~doc:"Per-task retry budget under --kill.")
  in
  let run policy fpgas size kills retries =
    let module Res = Everest_resilience in
    let module Wf = Sdk.Workflow in
    let app = Sdk.compile (demo_graph size) in
    let faults = Res.Faults.of_failures kills in
    let exec_policy = { Res.Policy.default with Res.Policy.max_retries = retries } in
    match Sdk.run ~policy ~cloud_fpgas:fpgas ~faults ~exec_policy app with
    | stats -> Format.printf "%a@." Sdk.pp_run stats
    | exception Wf.Executor.Execution_failed { reason; partial } ->
        Format.eprintf
          "error: execution failed: %s@.  completed %d/%d tasks, retries=%d \
           timeouts=%d recomputed=%d@."
          reason (Drill.completed_tasks partial)
          (Array.length partial.Wf.Executor.task_finish)
          partial.Wf.Executor.retries
          partial.Wf.Executor.timeouts partial.Wf.Executor.recomputed;
        exit 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the demo workflow on the demonstrator.")
    Term.(const run $ policy $ fpgas $ size $ kills $ retries)

(* ---- serve ----------------------------------------------------------------- *)

(* Serving-fleet drill: a seeded multi-tenant workload through N
   orchestrator shards behind admission control, a balancer, batching and
   worker auto-allocation.  Built-in checks (exit 1 on failure): the run
   must serve, keep availability and the per-tenant SLOs, shed nothing,
   and a second same-seed run must produce a byte-identical request log
   and SLO outcomes.  [--demo] deliberately overloads a starved fleet so
   the checks fail. *)
let serve_cmd =
  let module Srv = Everest_serving in
  let module Res = Everest_resilience in
  let module Obs = Everest_observe in
  let balancer =
    Arg.(
      value & opt string "least-outstanding"
      & info [ "balancer" ] ~docv:"POLICY"
          ~doc:"Routing policy: rr, least-outstanding, affinity.")
  in
  let fault_rate =
    Arg.(
      value & opt Drill.probability 0.0
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:"Per-shard crash probability over the horizon.")
  in
  let demo =
    Drill.demo
      ~doc:
        "Overload a starved single-worker fleet so requests are shed and \
         the latency SLO burns (exits 1)."
  in
  let run shards seed balancer rate horizon fault_rate format out demo =
    let balancer =
      match Srv.Balancer.policy_of_string balancer with
      | Some p -> p
      | None ->
          Format.eprintf "error: unknown balancer policy %S@." balancer;
          exit 2
    in
    let tenants =
      [ Drill.acme
          ~rate_rps:(if demo then 4000.0 else rate)
          ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
          ~burst:
            { Srv.Workload.burst_factor = 3.0; mean_calm_s = 0.1;
              mean_burst_s = 0.05 }
          ();
        Drill.globex ]
    in
    let base = Srv.Fabric.default_config ~n_shards:shards in
    let faults =
      if fault_rate <= 0.0 then Res.Faults.none
      else
        Res.Faults.random_plan ~seed ~fault_rate
          ~mean_downtime:(0.25 *. horizon)
          ~nodes:(List.init shards (Printf.sprintf "shard%d"))
          ~horizon ()
    in
    let config =
      if demo then
        (* starved on purpose: one worker, no batching headroom, a tiny
           queue bound and a tight latency SLO *)
        { base with
          Srv.Fabric.seed; balancer; faults; max_queue = 16;
          autoscale = Srv.Autoscale.fixed 1;
          batcher =
            { Srv.Batcher.max_batch = 1; max_delay_s = 0.0;
              marginal_cost = 1.0 };
          tenant_slos =
            [ Obs.Slo.availability "availability" 0.99;
              Obs.Slo.latency "p99-latency" ~q:0.99 ~limit_s:0.002 ] }
      else { base with Srv.Fabric.seed; balancer; faults }
    in
    let once () = Drill.fabric_run config ~tenants ~horizon in
    let r = once () in
    let again = once () in
    let identical =
      String.equal (Srv.Fabric.render_log r) (Srv.Fabric.render_log again)
      && String.equal (Srv.Fabric.render_slos r)
           (Srv.Fabric.render_slos again)
    in
    let served = Srv.Fabric.served_ok r in
    let shed = Srv.Fabric.shed r in
    let availability = Srv.Fabric.availability r in
    let slos_met =
      List.for_all
        (fun tr ->
          List.for_all
            (fun (res : Obs.Slo.result) -> res.Obs.Slo.met)
            tr.Srv.Fabric.tr_slos)
        r.Srv.Fabric.f_tenants
    in
    let checks =
      [ ("served", served > 0);
        ("availability", availability >= 0.99);
        ("slos_met", slos_met);
        ("nothing_shed", shed = 0);
        ("deterministic", identical) ]
    in
    Drill.report ~drill:"serve" ~format ~out
      ~text:(fun () -> print_string (Srv.Fabric.render_summary r))
      ~fields:
        [ ("shards", Obs.Json.Num (float_of_int shards));
          ("seed", Obs.Json.Num (float_of_int seed));
          ("balancer",
           Obs.Json.Str (Srv.Balancer.policy_name config.Srv.Fabric.balancer));
          ("horizon_s", Obs.Json.Num horizon);
          ("requests", Obs.Json.Num (float_of_int (List.length r.Srv.Fabric.f_log)));
          ("served", Obs.Json.Num (float_of_int served));
          ("failed", Obs.Json.Num (float_of_int (Srv.Fabric.failed r)));
          ("shed", Obs.Json.Num (float_of_int shed));
          ("availability", Obs.Json.Num availability);
          ("throughput_rps", Obs.Json.Num (Srv.Fabric.throughput_rps r));
          ("p99_latency_s", Obs.Json.Num (Srv.Fabric.latency_quantile r 0.99));
          ("batched_requests",
           Obs.Json.Num (float_of_int (Srv.Fabric.batched_requests r)));
          ("workers_spawned", Obs.Json.Num (float_of_int r.Srv.Fabric.f_spawned));
          ("workers_retired", Obs.Json.Num (float_of_int r.Srv.Fabric.f_retired));
          ("reroutes", Obs.Json.Num (float_of_int r.Srv.Fabric.f_reroutes));
          ("tenants",
           Obs.Json.Arr
             (List.map
                (fun tr ->
                  Obs.Json.Obj
                    [ ("tenant", Obs.Json.Str tr.Srv.Fabric.tr_tenant);
                      ("requests",
                       Obs.Json.Num (float_of_int tr.Srv.Fabric.tr_requests));
                      ("served",
                       Obs.Json.Num (float_of_int tr.Srv.Fabric.tr_served));
                      ("shed",
                       Obs.Json.Num
                         (float_of_int
                            (List.fold_left
                               (fun acc (_, n) -> acc + n)
                               0 tr.Srv.Fabric.tr_shed)));
                      ("burn_alerts",
                       Obs.Json.Num (float_of_int tr.Srv.Fabric.tr_alerts));
                      ("slos",
                       Obs.Json.Arr
                         (List.map Obs.Slo.result_to_json
                            tr.Srv.Fabric.tr_slos)) ])
                r.Srv.Fabric.f_tenants)) ]
      checks
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serving-fleet drill: sharded multi-tenant serving with checks.")
    Term.(
      const run $ Drill.shards ~default:2
      $ Drill.seed ~default:7 ~doc:"Workload seed."
      $ balancer $ Drill.rate ~default:150.0 $ Drill.horizon ~default:0.3
      $ fault_rate
      $ Drill.format ~doc:"Report format: text, json."
      $ Drill.out ~doc:"Write the JSON report to FILE."
      $ demo)

(* ---- recover ---------------------------------------------------------------- *)

(* Crash-recovery drill: run the serving fabric with write-ahead
   journaling on, kill it at a seeded mid-run journal record, restore
   from the latest snapshot + journal tail, and byte-compare the resumed
   report against the uninterrupted same-seed run; then the same for the
   workflow executor (journaled deterministic replay).  Exit 1 on any
   mismatch.  [--demo] corrupts the newest snapshot three ways (bit-flip,
   truncation, version skew): each must be detected and fallen back over,
   and a store with every snapshot damaged must be refused with a typed
   error — the demo exits 1 to prove the detection path fired. *)
let recover_cmd =
  let module Srv = Everest_serving in
  let module Res = Everest_resilience in
  let module Obs = Everest_observe in
  let module Rec = Everest_recovery in
  let module Wf = Everest_workflow in
  let snapshot_every =
    Arg.(
      value & opt Drill.positive 0.1
      & info [ "snapshot-every" ] ~docv:"T"
          ~doc:"Fabric snapshot interval in simulated seconds.")
  in
  let crash_after =
    Arg.(
      value & opt Drill.count 0
      & info [ "crash-after" ] ~docv:"N"
          ~doc:"Kill after N journal records (0: mid-run).")
  in
  let dir =
    Arg.(
      value
      & opt string (Filename.concat (Filename.get_temp_dir_name ()) "everest-recover")
      & info [ "dir" ] ~docv:"DIR" ~doc:"Recovery store directory.")
  in
  let dump_baseline =
    Arg.(
      value & opt (some string) None
      & info [ "dump-baseline" ] ~docv:"FILE"
          ~doc:"Write the uninterrupted run's report to FILE (for cmp).")
  in
  let dump_resumed =
    Arg.(
      value & opt (some string) None
      & info [ "dump-resumed" ] ~docv:"FILE"
          ~doc:"Write the crash-restart-resumed report to FILE (for cmp).")
  in
  let demo =
    Drill.demo
      ~doc:
        "Corrupt snapshots (bit-flip, truncation, version skew); the store \
         must detect each, fall back, and refuse an all-corrupt store with \
         a typed error (exits 1)."
  in
  let run seed shards rate horizon snapshot_every crash_after dir format out
      dump_baseline dump_resumed demo =
    let tenants =
      [ Drill.acme ~rate_rps:rate ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
          ();
        Drill.globex ]
    in
    let config =
      { (Srv.Fabric.default_config ~n_shards:shards) with
        Srv.Fabric.seed;
        faults =
          Res.Faults.plan ~seed ~transient_prob:0.05 ~fpga_transient_prob:0.1
            () }
    in
    let fp = Srv.Fabric.fingerprint config ~tenants ~horizon in
    let open_store ?fresh sub =
      Rec.Store.open_store ?fresh ~dir:(Filename.concat dir sub) ~fingerprint:fp
        ()
    in
    let recovery store =
      { Srv.Fabric.rv_store = store; rv_snapshot_every_s = snapshot_every }
    in
    let fab_run store =
      Drill.fabric_run ~recovery:(recovery store) config ~tenants ~horizon
    in
    let resume store =
      Srv.Fabric.resume ~registry:(Tel.Metrics.create_registry ())
        ~recovery:(recovery store) config ~deploy:(Srv.Fabric.demo_deploy ())
        ~tenants ~horizon
    in
    (* uninterrupted journaled run: the reference report *)
    let base_store = open_store ~fresh:true "baseline" in
    let baseline = Srv.Fabric.render (fab_run base_store) in
    let records = base_store.Rec.Store.records_written in
    let snapshots = base_store.Rec.Store.snapshots_written in
    Rec.Store.close base_store;
    let after =
      if crash_after > 0 then min crash_after (max 1 (records - 1))
      else max 1 (records / 2)
    in
    (* crashed run: the armed record is flushed, then the process "dies" *)
    let store = open_store ~fresh:true "crash" in
    Rec.Store.arm_crash store ~after_records:after;
    let crashed =
      try
        ignore (fab_run store);
        false
      with Rec.Journal.Crashed -> true
    in
    Rec.Store.close store;
    if demo then begin
      (* corruption drills against the crashed store *)
      let crash_dir = Filename.concat dir "crash" in
      let snapshot_files () =
        Sys.readdir crash_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".esnap")
        |> List.sort compare
        |> List.map (Filename.concat crash_dir)
      in
      let corruptions =
        [ ( "bit-flip",
            fun path ->
              let b = Bytes.of_string (Drill.read_file path) in
              let off = Bytes.length b - 7 in
              Bytes.set b off
                (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
              Drill.write_file path (Bytes.to_string b) );
          ( "truncation",
            fun path ->
              let s = Drill.read_file path in
              Drill.write_file path (String.sub s 0 (String.length s / 2)) );
          ( "version-skew",
            fun path ->
              let s = Drill.read_file path in
              Drill.write_file path
                ("EVEREST-SNAP v9" ^ String.sub s 15 (String.length s - 15)) )
        ]
      in
      let all_detected =
        List.for_all
          (fun (kind, corrupt) ->
            let snap = List.hd (List.rev (snapshot_files ())) in
            let pristine = Drill.read_file snap in
            corrupt snap;
            let store = open_store "crash" in
            let resumed, report = resume store in
            Rec.Store.close store;
            let detected = report.Srv.Fabric.rr_fallbacks >= 1 in
            let identical = String.equal baseline (Srv.Fabric.render resumed) in
            Printf.printf
              "recover demo: %-12s detected=%b fell back to snapshot %d, \
               report identical=%b\n"
              kind detected report.Srv.Fabric.rr_snapshot_index identical;
            Drill.write_file snap pristine;
            detected && identical)
          corruptions
      in
      (* every snapshot damaged: restore must refuse with a typed error *)
      List.iter
        (fun path -> Drill.write_file path ("XX" ^ Drill.read_file path))
        (snapshot_files ());
      let refused =
        let store = open_store "crash" in
        match resume store with
        | _ ->
            Rec.Store.close store;
            false
        | exception Rec.Store.Recovery_error e ->
            Rec.Store.close store;
            Printf.printf "recover demo: all-corrupt store refused: %s\n"
              (Rec.Store.error_to_string e);
            true
      in
      print_endline
        (if all_detected && refused then
           "recover demo: corruption detected and contained (exiting 1)"
         else "recover demo: DETECTION FAILED");
      exit 1
    end;
    (* restore from the crashed store and finish the run *)
    let store = open_store "crash" in
    let t0 = Sys.time () in
    let resumed_r, report = resume store in
    let recovery_s = Sys.time () -. t0 in
    Rec.Store.close store;
    let resumed = Srv.Fabric.render resumed_r in
    let fab_identical = String.equal baseline resumed in
    Option.iter (fun f -> Drill.write_file f baseline) dump_baseline;
    Option.iter (fun f -> Drill.write_file f resumed) dump_resumed;
    (* executor drill: journaled deterministic replay from genesis *)
    let exec_digest (s : Wf.Executor.stats) =
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "makespan=%.9f retries=%d timeouts=%d recomp=%d\n"
           s.Wf.Executor.makespan s.Wf.Executor.retries s.Wf.Executor.timeouts
           s.Wf.Executor.recomputed);
      Array.iteri
        (fun i f -> Buffer.add_string buf (Printf.sprintf "%d=%.9f\n" i f))
        s.Wf.Executor.task_finish;
      List.iter
        (fun (n, k) -> Buffer.add_string buf (Printf.sprintf "%s:%d\n" n k))
        s.Wf.Executor.per_node_tasks;
      Buffer.contents buf
    in
    let exec_run checkpoint =
      let d =
        Wf.Dag.layered ~seed ~layers:5 ~width:6 ~flops:1e9 ~bytes:1e6 ()
      in
      let c = Everest_platform.Cluster.everest_demonstrator () in
      let plan = Wf.Scheduler.heft c d in
      Wf.Executor.execute
        ~faults:(Res.Faults.plan ~seed ~transient_prob:0.02 ())
        ~registry:(Tel.Metrics.create_registry ()) ~checkpoint c plan
    in
    let exec_store ?fresh () =
      Rec.Store.open_store ?fresh ~dir:(Filename.concat dir "executor")
        ~fingerprint:"executor" ()
    in
    let store = exec_store ~fresh:true () in
    let exec_base =
      exec_digest (exec_run (Wf.Checkpoint.create ~store ~every:7))
    in
    let exec_records = store.Rec.Store.records_written in
    Rec.Store.close store;
    let exec_after = max 1 (exec_records / 2) in
    let store = exec_store ~fresh:true () in
    Rec.Store.arm_crash store ~after_records:exec_after;
    let exec_crashed =
      try
        ignore (exec_run (Wf.Checkpoint.create ~store ~every:7));
        false
      with Rec.Journal.Crashed -> true
    in
    Rec.Store.close store;
    let store = exec_store () in
    let exec_resumed =
      exec_digest (exec_run (Wf.Checkpoint.resume ~store ~every:7))
    in
    Rec.Store.close store;
    Drill.report ~drill:"recover" ~format ~out
      ~text:(fun () ->
        Printf.printf
          "fabric: %d journal records, %d snapshots; killed after record \
           %d, resumed from snapshot %d (+%d replayed) in %.3fs cpu\n"
          records snapshots after report.Srv.Fabric.rr_snapshot_index
          report.Srv.Fabric.rr_replayed recovery_s;
        Printf.printf
          "executor: %d journal records; killed after record %d, replayed \
           to completion\n"
          exec_records exec_after)
      ~fields:
        [ ("seed", Obs.Json.Num (float_of_int seed));
          ("horizon_s", Obs.Json.Num horizon);
          ("snapshot_every_s", Obs.Json.Num snapshot_every);
          ("journal_records", Obs.Json.Num (float_of_int records));
          ("snapshots", Obs.Json.Num (float_of_int snapshots));
          ("crash_after_record", Obs.Json.Num (float_of_int after));
          ("resume_snapshot",
           Obs.Json.Num (float_of_int report.Srv.Fabric.rr_snapshot_index));
          ("replayed_records",
           Obs.Json.Num (float_of_int report.Srv.Fabric.rr_replayed));
          ("recovery_time_s", Obs.Json.Num recovery_s);
          ("executor_records", Obs.Json.Num (float_of_int exec_records));
          ("executor_crash_after", Obs.Json.Num (float_of_int exec_after)) ]
      [ ("fabric_crashed", crashed);
        ("fabric_byte_identical", fab_identical);
        ("fabric_no_fallbacks", report.Srv.Fabric.rr_fallbacks = 0);
        ("executor_crashed", exec_crashed);
        ("executor_byte_identical", String.equal exec_base exec_resumed) ]
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash-recovery drill: kill mid-run, restore, byte-compare reports.")
    Term.(
      const run $ Drill.seed ~default:7 ~doc:"Workload seed."
      $ Drill.shards ~default:2 $ Drill.rate ~default:150.0
      $ Drill.horizon ~default:0.5 $ snapshot_every $ crash_after $ dir
      $ Drill.format ~doc:"Report format: text, json."
      $ Drill.out ~doc:"Write the JSON report to FILE."
      $ dump_baseline $ dump_resumed $ demo)

(* ---- hls ------------------------------------------------------------------- *)

let hls_cmd =
  let unroll = Arg.(value & opt Drill.positive_int 4 & info [ "unroll" ] ~doc:"Unroll factor.") in
  let dift = Arg.(value & flag & info [ "dift" ] ~doc:"Instrument with DIFT.") in
  let rtl = Arg.(value & flag & info [ "rtl" ] ~doc:"Print the RTL sketch.") in
  let run unroll dift rtl =
    let e = TE.matmul (TE.input "a" [ 64; 64 ]) (TE.input "b" [ 64; 64 ]) in
    let dfg = Everest_compiler.Hw_lower.dfg_of_expr ~unroll e in
    let c =
      { Everest_hls.Hls.default_constraints with
        Everest_hls.Hls.unroll; dift;
        trips = Everest_compiler.Hw_lower.trips e ~unroll;
        max_banks = max 16 unroll }
    in
    let d = Everest_hls.Hls.synthesize ~c ~name:"matmul64" dfg in
    Format.printf "%a" Everest_hls.Hls.report d;
    if rtl then print_string (Everest_hls.Rtl.to_string d.Everest_hls.Hls.rtl)
  in
  Cmd.v (Cmd.info "hls" ~doc:"Synthesize the demo kernel with the HLS flow.")
    Term.(const run $ unroll $ dift $ rtl)

(* ---- telemetry ------------------------------------------------------------- *)

(* Runs the full instrumented flow: compile (wall-clock spans), the
   demonstrator workflow under the executor (simulated-time spans, one track
   per node) and a closed-loop adaptive serving phase, then emits one Chrome
   trace with the three processes plus a metrics dump.  The headline
   executor numbers are printed from both stats and the metrics registry so
   the two accounts can be compared; they must agree exactly. *)
let telemetry_cmd =
  let size =
    Arg.(value & opt Drill.positive_int 128 & info [ "size" ] ~docv:"N" ~doc:"Tensor size.")
  in
  let policy =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy for the workflow phase.")
  in
  let requests =
    Arg.(
      value & opt Drill.positive_int 50
      & info [ "requests" ] ~doc:"Closed-loop requests in the serving phase.")
  in
  let kill =
    Arg.(
      value & opt (some node_time_conv) None
      & info [ "kill" ] ~docv:"NODE:T"
          ~doc:"Fail node NODE at simulated time T (exercises retries).")
  in
  let trace_out =
    Arg.(
      value & opt string "everest_trace.json"
      & info [ "trace-out" ] ~doc:"Chrome trace-event JSON output file.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~doc:"Metrics dump file (default: stdout).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("prometheus", `Prom) ]) `Text
      & info [ "format" ] ~doc:"Metrics dump format: text, prometheus.")
  in
  let run size policy requests kill trace_out metrics_out format =
    let registry = Tel.Metrics.default in
    Tel.Metrics.reset registry;
    (* 1. compile, tracing the DSE stages on the wall clock *)
    let compile_tracer = Tel.Trace.create () in
    let app =
      Tel.Probe.with_tracer compile_tracer (fun () ->
          Sdk.compile (demo_graph size))
    in
    (* 2. demonstrator workflow under the executor, on simulated time *)
    let c = Sdk.Platform.Cluster.everest_demonstrator () in
    let exec_tracer = Sdk.Runtime.Orchestrator.sim_tracer c in
    let faults = Everest_resilience.Faults.of_failures (Option.to_list kill) in
    let plan =
      match Sdk.Workflow.Scheduler.by_name policy with
      | Some f -> f c app.Everest_compiler.Pipeline.dag
      | None -> invalid_arg ("unknown scheduling policy " ^ policy)
    in
    let stats =
      Sdk.Workflow.Executor.execute ~faults ~tracer:exec_tracer ~registry c
        plan
    in
    (* 3. adaptive serving phase (Fig. 2 loop), its own simulated clock *)
    let served = Sdk.serve ~n:requests ~telemetry:true app ~kernel:"mm" in
    (* 4. one Chrome trace, three processes *)
    Tel.Chrome_trace.write_processes trace_out
      [ Tel.Chrome_trace.of_tracer ~pid:1 ~process_name:"compile (wall)"
          compile_tracer;
        Tel.Chrome_trace.of_tracer ~pid:2 ~process_name:"executor (sim)"
          exec_tracer;
        Tel.Chrome_trace.of_spans ~pid:3 ~process_name:"orchestrator (sim)"
          served.Sdk.span_log ];
    (* 5. metrics dump *)
    let dump =
      match format with
      | `Text -> Tel.Metrics.render_text registry
      | `Prom -> Tel.Metrics.render_prometheus registry
    in
    (match metrics_out with
    | None -> print_string dump
    | Some f -> Drill.write_file f dump);
    (* 6. stats vs. telemetry agreement *)
    let counter name =
      match
        Tel.Metrics.find ~registry
          ~labels:[ ("workflow", "demo") ]
          name
      with
      | Some { Tel.Metrics.value = Tel.Metrics.Counter c; _ } ->
          int_of_float !c
      | _ -> -1
    in
    let spans = stats.Sdk.Workflow.Executor.span_log in
    Format.printf
      "@.workflow phase (policy=%s): makespan=%.4gs energy=%.4gJ@." policy
      stats.Sdk.Workflow.Executor.makespan
      stats.Sdk.Workflow.Executor.energy_j;
    let agree name from_stats from_metrics from_trace =
      Format.printf "  %-12s stats=%-10d metrics=%-10d trace=%-10d %s@." name
        from_stats from_metrics from_trace
        (if from_stats = from_metrics && from_metrics = from_trace then "agree"
         else "MISMATCH");
      from_stats = from_metrics && from_metrics = from_trace
    in
    let ok =
      List.for_all Fun.id
        [ agree "tasks"
            (Array.length stats.Sdk.Workflow.Executor.task_finish)
            (counter "workflow_tasks_completed_total")
            (Sdk.Workflow.Executor.trace_tasks_completed spans);
          agree "retries" stats.Sdk.Workflow.Executor.retries
            (counter "workflow_task_retries_total")
            (Sdk.Workflow.Executor.trace_retries spans);
          agree "bytes_moved" stats.Sdk.Workflow.Executor.bytes_moved
            (counter "workflow_bytes_moved_total")
            (Sdk.Workflow.Executor.trace_bytes_moved spans) ]
    in
    Format.printf
      "serving phase: %d requests, mean latency %.3gs, %d switches@."
      served.Sdk.requests served.Sdk.mean_latency_s served.Sdk.switches;
    Format.printf "trace: %s (open in chrome://tracing or ui.perfetto.dev)@."
      trace_out;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:"Run the instrumented demonstrator and emit trace + metrics.")
    Term.(
      const run $ size $ policy $ requests $ kill $ trace_out $ metrics_out
      $ format)

(* ---- example workflows ----------------------------------------------------- *)

(* Lowered example workflows (the shapes of examples/): linted by `lint
   --examples` (must be clean) and stressed by the `chaos` drill. *)
let example_graphs () =
  let quickstart =
    let g = Sdk.workflow "quickstart" in
    let src =
      Dsl.Dataflow.source g "sensor" ~bytes:(1 lsl 16)
        ~annots:[ Dsl.Annot.Access Dsl.Annot.Streaming ]
    in
    let x = TE.input "x" [ 64; 64 ] in
    let smooth =
      Dsl.Dataflow.task g "smooth"
        (Dsl.Dataflow.Tensor_kernel (TE.scale 0.25 (TE.add x x)))
        ~deps:[ src ]
    in
    let w = TE.input "w" [ 64; 64 ] in
    let project =
      Dsl.Dataflow.task g "project"
        (Dsl.Dataflow.Tensor_kernel (TE.relu (TE.matmul w w)))
        ~deps:[ smooth ]
        ~annots:[ Dsl.Annot.Security EIr.Dialect_sec.Confidential ]
    in
    Dsl.Dataflow.sink g "result" project;
    g
  in
  let forecast =
    let g = Sdk.workflow "forecast" in
    let src = Dsl.Dataflow.source g "meters" ~bytes:(1 lsl 20) in
    let x = TE.input "x" [ 128; 128 ] in
    let model =
      Dsl.Dataflow.task g "model"
        (Dsl.Dataflow.Tensor_kernel (TE.matmul x x))
        ~deps:[ src ]
        ~annots:[ Dsl.Annot.Locality "cloud" ]
    in
    Dsl.Dataflow.sink g "forecast" model;
    g
  in
  [ ("quickstart", quickstart); ("forecast", forecast);
    ("demo", demo_graph 64) ]

(* ---- chaos ----------------------------------------------------------------- *)

(* Fault-injection drill over the example workflows plus a breaker demo on
   the serving side.  Every verdict is derived from the seed, so the whole
   report is reproducible: the command runs each workflow twice and fails
   (exit 1) if the two runs disagree, if any workflow cannot complete, or if
   the breaker never recovers. *)
let chaos_cmd =
  let module Res = Everest_resilience in
  let module Wf = Sdk.Workflow in
  let fault_rate =
    Arg.(
      value & opt Drill.probability 0.2
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:"Per-node crash probability over the run.")
  in
  let mean_downtime =
    Arg.(
      value & opt Drill.non_negative 0.25
      & info [ "mean-downtime" ] ~docv:"F"
          ~doc:
            "Mean downtime as a fraction of the clean makespan (0 = crashed \
             nodes never restart).")
  in
  let transient =
    Arg.(
      value & opt Drill.probability 0.05
      & info [ "transient" ] ~docv:"P"
          ~doc:"Per-attempt transient task-failure probability.")
  in
  let fpga_transient =
    Arg.(
      value & opt Drill.probability 0.02
      & info [ "fpga-transient" ] ~docv:"P"
          ~doc:"Extra transient probability for FPGA executions.")
  in
  let sched =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy for the workflows.")
  in
  let retries =
    Arg.(
      value & opt Drill.count 8
      & info [ "retries" ] ~docv:"N" ~doc:"Per-task retry budget.")
  in
  let run seed fault_rate mean_downtime transient fpga_transient sched retries
      format out =
    let exec_policy = { Res.Policy.chaos with Res.Policy.max_retries = retries } in
    let drill (name, dag) =
      let clean_makespan, faults =
        Drill.scaled_faults ~seed ~policy:sched ~fault_rate ~mean_downtime
          ~transient ~fpga_transient dag
      in
      let once () =
        match
          Wf.Executor.run_on_demonstrator ~policy:sched ~faults ~exec_policy
            dag
        with
        | _, s -> Ok s
        | exception Wf.Executor.Execution_failed { reason; partial } ->
            Error (reason, partial)
      in
      let summary r =
        let s = match r with Ok s | Error (_, s) -> s in
        ( s.Wf.Executor.makespan, Drill.completed_tasks s,
          s.Wf.Executor.retries, s.Wf.Executor.timeouts,
          s.Wf.Executor.speculative, s.Wf.Executor.recomputed )
      in
      let a = once () in
      let b = once () in
      let reproducible = summary a = summary b in
      (name, Sdk.Workflow.Dag.size dag, clean_makespan, a, reproducible)
    in
    let dags =
      List.map
        (fun (name, g) -> (name, (Sdk.compile g).Everest_compiler.Pipeline.dag))
        (example_graphs ())
      (* the example graphs are tiny; a layered stress DAG long enough for
         crashes, stragglers and lost outputs to actually bite *)
      @ [ ("stress",
           Wf.Dag.layered ~seed ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 ()) ]
    in
    let reports = List.map drill dags in
    (* breaker demo: the hw variant fails for a while, the breaker opens,
       requests degrade to sw, a half-open probe brings hw back *)
    let orch, dk = Drill.breaker_kernel () in
    let hw_outage = 6 in
    let log =
      Sdk.Runtime.Orchestrator.serve orch ~kernel:"k" ~n:30
        ~policy:(Sdk.Runtime.Orchestrator.Fixed "hw")
        ~fail:(fun ~req ~variant ~attempt:_ ->
          req < hw_outage && String.equal variant "hw")
        ()
    in
    let breaker_opens =
      List.fold_left
        (fun acc (_, b) -> acc + Res.Breaker.opens b)
        0 dk.Sdk.Runtime.Orchestrator.breakers
    in
    let breaker_recovered =
      Sdk.Runtime.Orchestrator.breaker_state orch dk ~variant:"hw"
      = Some Res.Breaker.Closed
    in
    let degraded = Sdk.Runtime.Orchestrator.degraded_requests log in
    let availability = Sdk.Runtime.Orchestrator.availability log in
    let all_ok =
      List.for_all
        (fun (_, size, _, r, reproducible) ->
          reproducible
          && match r with Ok s -> Array.length s.Wf.Executor.task_finish = size
                                  && Array.for_all (fun f -> f >= 0.0) s.Wf.Executor.task_finish
                        | Error _ -> false)
        reports
      && breaker_opens >= 1 && breaker_recovered && degraded >= 1
    in
    let buf = Buffer.create 2048 in
    (match format with
    | `Text ->
        Buffer.add_string buf
          (Printf.sprintf
             "chaos drill: seed=%d fault-rate=%g transient=%g policy=%s\n\n"
             seed fault_rate transient sched);
        List.iter
          (fun (name, size, clean_ms, r, reproducible) ->
            match r with
            | Ok (s : Wf.Executor.stats) ->
                Buffer.add_string buf
                  (Printf.sprintf
                     "  %-10s %d/%d tasks  makespan %.4gs (clean %.4gs, \
                      +%.0f%%)  retries=%d timeouts=%d speculative=%d \
                      recomputed=%d  %s\n"
                     name size size s.Wf.Executor.makespan clean_ms
                     ((s.Wf.Executor.makespan /. clean_ms -. 1.0) *. 100.0)
                     s.Wf.Executor.retries s.Wf.Executor.timeouts
                     s.Wf.Executor.speculative s.Wf.Executor.recomputed
                     (if reproducible then "reproducible"
                      else "NON-DETERMINISTIC"))
            | Error (reason, p) ->
                Buffer.add_string buf
                  (Printf.sprintf
                     "  %-10s FAILED: %s (%d tasks done, retries=%d)\n" name
                     reason (Drill.completed_tasks p) p.Wf.Executor.retries))
          reports;
        Buffer.add_string buf
          (Printf.sprintf
             "\nbreaker demo: %d requests, availability %.0f%%, %d degraded \
              to sw, breaker opened %d time(s), %s\n"
             (List.length log) (availability *. 100.0) degraded breaker_opens
             (if breaker_recovered then "recovered (closed)"
              else "NOT RECOVERED"));
        Buffer.add_string buf
          (if all_ok then "\nchaos drill passed\n"
           else "\nchaos drill FAILED\n")
    | `Json ->
        let graph_json (name, size, clean_ms, r, reproducible) =
          match r with
          | Ok (s : Wf.Executor.stats) ->
              Printf.sprintf
                "{\"graph\": \"%s\", \"tasks\": %d, \"completed\": %d, \
                 \"clean_makespan_s\": %.17g, \"makespan_s\": %.17g, \
                 \"retries\": %d, \"timeouts\": %d, \"speculative\": %d, \
                 \"recomputed\": %d, \"reproducible\": %b}"
                name size size clean_ms s.Wf.Executor.makespan
                s.Wf.Executor.retries s.Wf.Executor.timeouts
                s.Wf.Executor.speculative s.Wf.Executor.recomputed reproducible
          | Error (reason, p) ->
              Printf.sprintf
                "{\"graph\": \"%s\", \"tasks\": %d, \"completed\": %d, \
                 \"error\": \"%s\", \"retries\": %d, \"reproducible\": %b}"
                name size (Drill.completed_tasks p) (String.escaped reason)
                p.Wf.Executor.retries reproducible
        in
        Buffer.add_string buf
          (Printf.sprintf
             "{\"seed\": %d, \"fault_rate\": %g, \"transient_prob\": %g, \
              \"policy\": \"%s\",\n\
              \ \"workflows\": [%s],\n\
              \ \"breaker_demo\": {\"requests\": %d, \"availability\": %g, \
              \"degraded\": %d, \"opens\": %d, \"recovered\": %b},\n\
              \ \"passed\": %b}\n"
             seed fault_rate transient sched
             (String.concat ", " (List.map graph_json reports))
             (List.length log) availability degraded breaker_opens
             breaker_recovered all_ok));
    (match out with
    | None -> print_string (Buffer.contents buf)
    | Some f -> Drill.write_file f (Buffer.contents buf));
    if not all_ok then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Deterministic fault-injection drill over the example workflows.")
    Term.(
      const run $ Drill.seed ~default:7 ~doc:"Fault-plan seed." $ fault_rate
      $ mean_downtime $ transient $ fpga_transient $ sched $ retries
      $ Drill.format ~doc:"Report format: text, json."
      $ Drill.out ~doc:"Write the report to FILE.")

(* ---- lint ------------------------------------------------------------------ *)

(* A module seeded with one instance of every defect family the lint rules
   cover, each op carrying a file location so diagnostics are clickable. *)
let seeded_module () =
  EIr.Registry.register_all ();
  let ctx = EIr.Ir.ctx () in
  let at l (o : EIr.Ir.op) =
    { o with EIr.Ir.loc = EIr.Loc.file "seeded.mlir" l }
  in
  let r = EIr.Ir.result in
  (* @k_proc: the kernel referenced by the placed task (kept alive) *)
  let karg = EIr.Ir.fresh_value ctx EIr.Types.f64 in
  let kret = at 3 (EIr.Dialect_func.return ctx [ karg ]) in
  let k_proc = EIr.Ir.func "k_proc" [ karg ] [ EIr.Types.f64 ] [ kret ] in
  (* @orphan: never referenced -> EV011 *)
  let oret = at 7 (EIr.Dialect_func.return ctx []) in
  let orphan = EIr.Ir.func "orphan" [] [] [ oret ] in
  (* @secrets: EV040 secret data reaches a public sink; EV041 secret task
     pinned to an edge node *)
  let src =
    at 11
      (EIr.Dialect_df.source ctx "patient_records"
         (EIr.Types.tensor EIr.Types.F64 [ 64 ]))
  in
  let cls =
    at 12 (EIr.Dialect_sec.classify ctx (r src) EIr.Dialect_sec.Secret)
  in
  let leak_sink = at 13 (EIr.Dialect_df.sink ctx "public_out" (r cls)) in
  let placed =
    at 14
      (EIr.Dialect_df.task ctx ~kernel:"k_proc"
         ~attrs:
           [ ("everest.security", EIr.Attr.str "secret");
             ("everest.locality", EIr.Attr.str "edge:0") ]
         [ r cls ]
         [ EIr.Types.tensor EIr.Types.F64 [ 64 ] ])
  in
  let sret = at 15 (EIr.Dialect_func.return ctx []) in
  let secrets =
    EIr.Ir.func "secrets" [] [] [ src; cls; leak_sink; placed; sret ]
  in
  (* @main: memref lifetime defects + a dead, constant-foldable op *)
  let buf = at 19 (EIr.Dialect_memref.alloc ctx EIr.Types.F64 [ 4; 4 ]) in
  let c0 = at 20 (EIr.Dialect_arith.const_index ctx 0) in
  let c9 = at 21 (EIr.Dialect_arith.const_index ctx 9) in
  let free1 = at 22 (EIr.Dialect_memref.dealloc ctx (r buf)) in
  (* use after dealloc (EV030) with a constant OOB index (EV033) *)
  let uaf = at 23 (EIr.Dialect_memref.load ctx (r buf) [ r c9; r c0 ]) in
  let free2 = at 24 (EIr.Dialect_memref.dealloc ctx (r buf)) in (* EV031 *)
  let leaked = at 25 (EIr.Dialect_memref.alloc ctx EIr.Types.F64 [ 8 ]) in
  let st =
    at 26 (EIr.Dialect_memref.store ctx (r uaf) (r leaked) [ r c0 ])
  in (* leaked is only loaded/stored and never freed -> EV032 *)
  let k2 = at 27 (EIr.Dialect_arith.const_i ctx 2) in
  let k3 = at 28 (EIr.Dialect_arith.const_i ctx 3) in
  let dead = at 29 (EIr.Dialect_arith.muli ctx (r k2) (r k3)) in
  (* ^ result unused -> EV010; operands constant -> EV013 *)
  let call = at 30 (EIr.Dialect_func.call ctx "secrets" [] []) in
  let mret = at 31 (EIr.Dialect_func.return ctx []) in
  let main =
    EIr.Ir.func "main" [] []
      [ buf; c0; c9; free1; uaf; free2; leaked; st; k2; k3; dead; call; mret ]
  in
  EIr.Ir.modul "seeded" [ k_proc; orphan; secrets; main ]

let lint_cmd =
  let files =
    Arg.(
      value & pos_all non_dir_file []
      & info [] ~docv:"FILE" ~doc:"Textual IR module to lint.")
  in
  let examples =
    Arg.(
      value & flag
      & info [ "examples" ]
          ~doc:"Lint the lowered example workflow modules (must be clean).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Promote warnings to errors (exit 1 on any warning).")
  in
  let run files demo examples format strict =
    EIr.Registry.register_all ();
    let mods =
      List.map
        (fun f ->
          let ctx = EIr.Ir.ctx () in
          match EIr.Parser.parse_module ctx (Drill.read_file f) with
          | m -> (f, m)
          | exception EIr.Parser.Parse_error msg ->
              Drill.input_error ~cmd:"lint" f msg)
        files
      @ (if demo then [ ("seeded", seeded_module ()) ] else [])
      @
      if examples then
        List.map
          (fun (name, g) ->
            let ctx = EIr.Ir.ctx () in
            (name, Dsl.Lower.lower_graph ctx g))
          (example_graphs ())
      else []
    in
    if mods = [] then (
      prerr_endline
        "lint: nothing to check (pass FILE arguments, --demo or --examples)";
      exit 2);
    let results =
      List.map
        (fun (name, m) ->
          let ds = Lint.run m in
          (name, if strict then Lint.promote_warnings ds else ds))
        mods
    in
    (match format with
    | `Text ->
        List.iter
          (fun (name, ds) ->
            Format.printf "== %s ==@.%s@." name (Lint.render_text ds))
          results
    | `Json ->
        let items =
          List.map
            (fun (name, ds) ->
              Printf.sprintf "{\"module\": \"%s\", \"report\": %s}"
                (Tel.Json_text.escape name)
                (String.trim (Lint.render_json ds)))
            results
        in
        print_string ("[" ^ String.concat ",\n" items ^ "]\n"));
    if List.exists (fun (_, ds) -> Lint.has_errors ds) results then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static-analysis rules (EV0xx) over IR modules.")
    Term.(
      const run $ files
      $ Drill.demo ~doc:"Lint a module seeded with one defect per rule family."
      $ examples
      $ Drill.format ~doc:"Output format: text, json."
      $ strict)

(* ---- estee ----------------------------------------------------------------- *)

(* Scheduler scale smoke for CI: plan one generated family instance and
   fail when the wall clock blows the budget.  A 10^4-task layered plan
   takes milliseconds on the indexed HEFT and minutes on an O(n^2) one, so
   a generous budget still catches quadratic regressions without making
   the job flaky on slow runners (see bench/estee.ml for the full E17
   sweep). *)
let estee_cmd =
  let tasks =
    Arg.(
      value & opt Drill.positive_int 10_000
      & info [ "tasks" ] ~docv:"N" ~doc:"Approximate DAG size.")
  in
  let family =
    Arg.(
      value & opt string "layered"
      & info [ "family" ] ~docv:"F"
          ~doc:"DAG family: layered, fork-join, ensemble.")
  in
  let policy =
    Arg.(
      value & opt string "heft"
      & info [ "policy" ] ~docv:"P"
          ~doc:
            "Scheduling policy (heft, heft-locality, min-load, round-robin, \
             heft-reference).")
  in
  let budget =
    Arg.(
      value & opt Drill.non_negative 0.0
      & info [ "budget-s" ] ~docv:"T"
          ~doc:
            "Exit 1 if planning (+ execution) wall time exceeds T seconds; 0 \
             disables the check.")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute" ]
          ~doc:"Also simulate execution on the demonstrator cluster.")
  in
  let run tasks family policy seed budget execute =
    let module Sb = Sdk.Workflow.Scalebench in
    match Sb.family_of_string family with
    | None ->
        Printf.eprintf "estee: unknown family %S\n" family;
        exit 2
    | Some fam -> (
        match Sb.run_policy ~seed ~execute fam ~tasks ~policy with
        | exception Invalid_argument msg ->
            Printf.eprintf "estee: %s\n" msg;
            exit 2
        | s ->
            let total =
              s.Sb.sb_plan_wall_s
              +. if s.Sb.sb_exec_wall_s > 0.0 then s.Sb.sb_exec_wall_s else 0.0
            in
            Printf.printf
              "family=%s tasks=%d policy=%s plan=%.3fs (%.0f tasks/s)%s\n"
              s.Sb.sb_family s.Sb.sb_tasks s.Sb.sb_policy s.Sb.sb_plan_wall_s
              s.Sb.sb_tasks_per_s
              (if s.Sb.sb_exec_wall_s < 0.0 then ""
               else
                 Printf.sprintf " exec=%.3fs makespan=%.1fs"
                   s.Sb.sb_exec_wall_s s.Sb.sb_makespan_s);
            if budget > 0.0 && total > budget then begin
              Printf.eprintf
                "estee: wall %.3fs exceeded budget %.3fs — scheduling \
                 throughput regressed\n"
                total budget;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "estee"
       ~doc:"Scheduler scale smoke: plan a DAG family against a wall budget.")
    Term.(
      const run $ tasks $ family $ policy
      $ Drill.seed ~default:17 ~doc:"Generator seed."
      $ budget $ execute)

(* ---- plan-lint ------------------------------------------------------------- *)

(* Static plan sanitization (EV1xx): lint (dag, plan, cluster) triples
   before they reach the executor.  [--examples] lints every compiled
   example workflow under every shipped scheduler (must be clean);
   [--family] lints a generated estee-family plan against a wall budget (a
   lint pass costing a noticeable fraction of planning is a regression);
   [--demo] assembles one defective plan per EV1xx defect class and must
   exit 1 with every class flagged. *)
let plan_lint_cmd =
  let module Wf = Sdk.Workflow in
  let module Pl = Wf.Planlint in
  let module Sched = Wf.Scheduler in
  let module Dag = Wf.Dag in
  let examples =
    Arg.(
      value & flag
      & info [ "examples" ]
          ~doc:
            "Lint the compiled example workflows under every shipped \
             scheduling policy (must be clean).")
  in
  let family =
    Arg.(
      value
      & opt (some string) None
      & info [ "family" ] ~docv:"F"
          ~doc:"Lint a generated DAG family plan: layered, fork-join, \
                ensemble.")
  in
  let tasks =
    Arg.(
      value & opt Drill.positive_int 10_000
      & info [ "tasks" ] ~docv:"N" ~doc:"Family DAG size (with --family).")
  in
  let policy =
    Arg.(
      value & opt string "heft"
      & info [ "policy" ] ~docv:"P"
          ~doc:"Scheduling policy for --family (heft, heft-locality, \
                min-load, round-robin).")
  in
  let budget =
    Arg.(
      value & opt Drill.non_negative 0.0
      & info [ "budget-s" ] ~docv:"T"
          ~doc:
            "With --family: exit 1 if the lint pass exceeds T seconds of \
             wall time; 0 disables the check.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Promote warnings to errors (exit 1 on any warning).")
  in
  let deadline =
    Arg.(
      value
      & opt (some Drill.positive) None
      & info [ "deadline-s" ] ~docv:"T"
          ~doc:"Latency deadline for the EV140 feasibility check.")
  in
  let shipped_policies = [ "round-robin"; "min-load"; "heft"; "heft-locality" ] in
  (* one defective plan per EV1xx defect class, built on the demonstrator *)
  let demo_targets c =
    let cpu = Dag.Cpu { flops = 1e9; bytes = 1e6; threads = 1 } in
    let est =
      { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
        cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 5.0 }
    in
    let fpga b =
      Dag.Fpga { bitstream = b; estimate = est; in_bytes = 4096;
                 out_bytes = 1024 }
    in
    let chain name =
      Dag.create name
        [ Dag.task ~id:0 ~name:"src" ~inputs:[] ~out_bytes:4096 ~impls:[ cpu ] ();
          Dag.task ~id:1 ~name:"mid" ~inputs:[ 0 ] ~out_bytes:4096
            ~impls:[ cpu ] ();
          Dag.task ~id:2 ~name:"sink" ~inputs:[ 1 ] ~out_bytes:64
            ~impls:[ cpu ] () ]
    in
    (* 1. precedence break: the plan's DAG lost the 1 -> 2 edge that the
       reference DAG still carries *)
    let edge_drop =
      let full = chain "edge-drop" in
      let cut =
        Dag.create "edge-drop"
          [ full.Dag.tasks.(0); full.Dag.tasks.(1);
            { (full.Dag.tasks.(2)) with Dag.inputs = [] } ]
      in
      let plan =
        match Sched.by_name "round-robin" with
        | Some f -> f c cut
        | None -> assert false
      in
      ("precedence-break", [ "EV110"; "EV111" ], Some full, None, plan)
    in
    (* 2. pinned source placed off its pin *)
    let off_pin =
      let d =
        Dag.create "off-pin"
          [ Dag.task ~id:0 ~name:"src" ~pinned:(Some "ep0") ~inputs:[]
              ~out_bytes:4096 ~impls:[ cpu ] ();
            Dag.task ~id:1 ~name:"sink" ~inputs:[ 0 ] ~out_bytes:64
              ~impls:[ cpu ] () ]
      in
      let plan = Sched.heft c d in
      let assignments = Array.copy plan.Sched.assignments in
      assignments.(0) <-
        { (assignments.(0)) with Sched.node = "cf0" };
      ("off-pin", [ "EV120" ],
       None, None, { plan with Sched.assignments; policy = "heft+mutated" })
    in
    (* 3. capability mismatch: FPGA implementation routed to an FPGA-less
       endpoint while FPGA-capable nodes exist *)
    let capability =
      let d =
        Dag.create "capability"
          [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:1024
              ~impls:[ fpga "k" ] () ]
      in
      let plan =
        { Sched.dag = d;
          assignments = [| { Sched.node = "ep0"; impl = fpga "k" } |];
          policy = "manual" }
      in
      ("capability-mismatch", [ "EV122" ], None, None, plan)
    in
    (* 4. slot oversubscription + reconfiguration thrash: eight concurrent
       distinct-bitstream FPGA tasks on one 2-slot cloudFPGA node *)
    let oversubscribe =
      let width = 8 in
      let workers =
        List.init width (fun i ->
            Dag.task ~id:(i + 1)
              ~name:(Printf.sprintf "w%d" i)
              ~inputs:[ 0 ] ~out_bytes:1024
              ~impls:[ fpga (Printf.sprintf "bit%d" i) ]
              ())
      in
      let d =
        Dag.create "oversubscribe"
          (Dag.task ~id:0 ~name:"src" ~inputs:[] ~out_bytes:4096
             ~impls:[ cpu ] ()
          :: workers)
      in
      let assignments =
        Array.init (width + 1) (fun i ->
            if i = 0 then { Sched.node = "ep0"; impl = cpu }
            else
              { Sched.node = "cf0";
                impl = fpga (Printf.sprintf "bit%d" (i - 1)) })
      in
      ("slot-oversubscription", [ "EV130"; "EV131" ], None, None,
       { Sched.dag = d; assignments; policy = "manual" })
    in
    (* 5. infeasible SLO: a deadline below the critical-path lower bound *)
    let infeasible =
      let d =
        Dag.create "infeasible-slo"
          [ Dag.task ~id:0 ~name:"heavy" ~inputs:[] ~out_bytes:64
              ~impls:[ Dag.Cpu { flops = 1e13; bytes = 1e6; threads = 1 } ]
              () ]
      in
      ("infeasible-slo", [ "EV140" ], None, Some 1e-6, Sched.heft c d)
    in
    [ edge_drop; off_pin; capability; oversubscribe; infeasible ]
  in
  let run examples demo family tasks policy seed budget strict format deadline
      =
    let c = Sdk.Platform.Cluster.everest_demonstrator () in
    (* each target: (name, expected codes, reference dag, deadline, plan) *)
    let targets = ref [] in
    if examples then
      List.iter
        (fun (name, g) ->
          let dag = (Sdk.compile g).Everest_compiler.Pipeline.dag in
          List.iter
            (fun p ->
              match Sched.by_name p with
              | Some f ->
                  targets :=
                    (name ^ "/" ^ p, [], None, None, f c dag) :: !targets
              | None -> ())
            shipped_policies)
        (example_graphs ());
    (match family with
    | Some f -> (
        let module Sb = Wf.Scalebench in
        match Sb.family_of_string f with
        | None ->
            Printf.eprintf "plan-lint: unknown family %S\n" f;
            exit 2
        | Some fam -> (
            match Sched.by_name policy with
            | None ->
                Printf.eprintf "plan-lint: unknown policy %S\n" policy;
                exit 2
            | Some sched ->
                let dag = Sb.make_dag ~seed fam ~tasks in
                targets :=
                  (Printf.sprintf "%s-%d/%s" f tasks policy, [], None, None,
                   sched c dag)
                  :: !targets))
    | None -> ());
    if demo then targets := !targets @ demo_targets c;
    let targets = List.rev !targets in
    if targets = [] then begin
      prerr_endline
        "plan-lint: nothing to check (pass --examples, --family or --demo)";
      exit 2
    end;
    let lint_wall = ref 0.0 in
    let results =
      List.map
        (fun (name, expected, dag, dl, plan) ->
          let dl = match dl with Some _ as d -> d | None -> deadline in
          let t0 = Unix.gettimeofday () in
          let ds = Pl.check ?dag ?deadline_s:dl c plan in
          lint_wall := !lint_wall +. (Unix.gettimeofday () -. t0);
          let ds = if strict then Lint.promote_warnings ds else ds in
          (name, expected, ds))
        targets
    in
    (match format with
    | `Text ->
        List.iter
          (fun (name, _, ds) ->
            Format.printf "== %s ==@.%s@." name (Lint.render_text ds))
          results
    | `Json ->
        let items =
          List.map
            (fun (name, _, ds) ->
              Printf.sprintf "{\"plan\": \"%s\", \"report\": %s}" name
                (String.trim (Lint.render_json ds)))
            results
        in
        print_string ("[" ^ String.concat ",\n" items ^ "]\n"));
    (* no false negatives: every seeded defect class must be flagged with
       its expected code *)
    let missing =
      List.concat_map
        (fun (name, expected, ds) ->
          List.filter_map
            (fun code ->
              if List.exists (fun d -> String.equal d.Lint.code code) ds then
                None
              else Some (name, code))
            expected)
        results
    in
    if missing <> [] then begin
      List.iter
        (fun (name, code) ->
          Printf.eprintf "plan-lint: seeded defect %s NOT caught (%s)\n" name
            code)
        missing;
      exit 2
    end;
    if budget > 0.0 && !lint_wall > budget then begin
      Printf.eprintf
        "plan-lint: lint wall %.3fs exceeded budget %.3fs — analyzer \
         throughput regressed\n"
        !lint_wall budget;
      exit 1
    end;
    if List.exists (fun (_, _, ds) -> Lint.has_errors ds) results then exit 1
  in
  Cmd.v
    (Cmd.info "plan-lint"
       ~doc:
         "Statically sanitize execution plans (EV1xx): structure, \
          happens-before, placement capability, SLO feasibility.")
    Term.(
      const run $ examples
      $ Drill.demo
          ~doc:
            "Lint plans seeded with one defect per class (precedence break, \
             off-pin, capability mismatch, slot oversubscription, \
             infeasible SLO); exits 1."
      $ family $ tasks $ policy
      $ Drill.seed ~default:17 ~doc:"Generator seed."
      $ budget $ strict
      $ Drill.format ~doc:"Output format: text, json."
      $ deadline)

(* ---- observe --------------------------------------------------------------- *)

(* Read-side analytics drill: run the stress DAG fully traced under a
   seeded fault plan, force the executor's lazy report and check it for
   internal consistency (critical-path duration must equal the run's
   makespan, per-node utilization must reconcile with the span log), then
   serve requests under availability/latency SLO monitors.  [--demo]
   deliberately violates the availability SLO to exercise the burn-rate
   alert and failure exit; [--diff] compares two saved reports. *)
let observe_cmd =
  let module Res = Everest_resilience in
  let module Wf = Sdk.Workflow in
  let module Obs = Everest_observe in
  let sched =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy for the stress workflow.")
  in
  let diff =
    Arg.(
      value & opt_all file []
      & info [ "diff" ] ~docv:"FILE"
          ~doc:"Diff two saved reports (pass --diff twice).")
  in
  let tolerance =
    Arg.(
      value & opt Drill.non_negative 0.05
      & info [ "tolerance" ] ~docv:"T"
          ~doc:"Relative change treated as noise by --diff.")
  in
  let run seed sched format out demo diff tolerance =
    match diff with
    | [ a; b ] ->
        let parse f =
          try Obs.Json.parse_file f
          with Obs.Json.Parse_error msg -> Drill.input_error ~cmd:"observe" f msg
        in
        let before = parse a in
        let after = parse b in
        let changes = Obs.Regress.diff ~tolerance ~before ~after () in
        print_string (Obs.Regress.render_text changes);
        if Obs.Regress.regressions changes <> [] then exit 1
    | _ :: _ ->
        prerr_endline "observe: --diff needs exactly two report files";
        exit 2
    | [] ->
        (* deterministic fault plan scaled to the clean makespan, as in the
           chaos drill *)
        let dag =
          Wf.Dag.layered ~seed ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 ()
        in
        let _, faults =
          Drill.scaled_faults ~seed ~policy:sched ~fault_rate:0.2
            ~mean_downtime:0.25 ~transient:0.05 ~fpga_transient:0.02 dag
        in
        let registry = Tel.Metrics.create_registry () in
        let _, stats =
          Wf.Executor.run_on_demonstrator ~policy:sched ~faults
            ~exec_policy:Res.Policy.chaos ~tracer:`Sim ~registry dag
        in
        let report = Lazy.force stats.Wf.Executor.report in
        let cp_ok, cp_matches =
          match report.Obs.Report.r_cp with
          | None -> (false, false)
          | Some cp ->
              ( Obs.Critical_path.check cp,
                Float.abs
                  (cp.Obs.Critical_path.duration_s
                  -. stats.Wf.Executor.makespan)
                <= 1e-9 *. Float.max 1.0 stats.Wf.Executor.makespan )
        in
        let util_ok =
          match report.Obs.Report.r_util with
          | None -> false
          | Some u -> Obs.Utilization.check u
        in
        (* serving phase: hw outage early in the run; monitors watch
           availability and tail latency over simulated time *)
        let orch, _ = Drill.breaker_kernel ~registry () in
        let n_req = 30 in
        let specs =
          [ Obs.Slo.availability "requests-available" 0.9;
            Obs.Slo.latency "tail-latency" ~q:0.95 ~limit_s:0.1 ]
        in
        let alert =
          { Obs.Slo.fast_window_s = 0.05; slow_window_s = 0.5;
            burn_threshold = 2.0 }
        in
        let monitors = List.map (Obs.Slo.monitor ~alert) specs in
        let fail =
          if demo then
            (* a sustained outage: most requests fail outright, burning the
               10% error budget at ~5x — both alert windows trip *)
            fun ~req ~variant:_ ~attempt:_ -> req mod 2 = 0
          else fun ~req ~variant ~attempt:_ ->
            req < 4 && String.equal variant "hw"
        in
        let max_attempts = if demo then 1 else 3 in
        let log =
          Sdk.Runtime.Orchestrator.serve orch ~kernel:"k" ~n:n_req
            ~policy:(Sdk.Runtime.Orchestrator.Fixed "hw")
            ~fail ~max_attempts ~slos:monitors ()
        in
        let serve_results =
          Obs.Slo.evaluate_all specs
            (Sdk.Runtime.Orchestrator.slo_outcomes log)
        in
        let alerts =
          List.fold_left (fun acc m -> acc + Obs.Slo.alerts m) 0 monitors
        in
        let slos_met =
          List.for_all (fun (r : Obs.Slo.result) -> r.Obs.Slo.met)
            (report.Obs.Report.r_slos @ serve_results)
        in
        Drill.report ~drill:"observe" ~format ~out ~list_checks:false
          ~text:(fun () ->
            print_string (Obs.Report.render report);
            Printf.printf
              "serving: %d requests, availability %.0f%%, %d burn alert(s)\n"
              (List.length log)
              (100.0 *. Sdk.Runtime.Orchestrator.availability log)
              alerts;
            List.iter
              (fun r -> Format.printf "  slo: %a@." Obs.Slo.pp_result r)
              serve_results;
            Printf.printf
              "checks: critical-path %s (makespan match %s), utilization %s\n"
              (if cp_ok then "ok" else "FAILED")
              (if cp_matches then "ok" else "FAILED")
              (if util_ok then "ok" else "FAILED"))
          ~fields:
            [ ("workflow", Obs.Report.to_json report);
              ("serving",
               Obs.Json.Obj
                 [ ("requests", Obs.Json.Num (float_of_int (List.length log)));
                   ("availability",
                    Obs.Json.Num (Sdk.Runtime.Orchestrator.availability log));
                   ("slos",
                    Obs.Json.Arr
                      (List.map Obs.Slo.result_to_json serve_results));
                   ("burn_alerts", Obs.Json.Num (float_of_int alerts)) ]) ]
          [ ("critical_path_consistent", cp_ok);
            ("critical_path_matches_makespan", cp_matches);
            ("utilization_consistent", util_ok);
            ("slos_met", slos_met);
            ("no_burn_alerts", alerts = 0) ]
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:"Trace analytics: critical path, utilization and SLO verdicts.")
    Term.(
      const run $ Drill.seed ~default:7 ~doc:"Fault-plan seed." $ sched
      $ Drill.format ~doc:"Report format: text, json."
      $ Drill.out ~doc:"Write the JSON report to FILE."
      $ Drill.demo
          ~doc:
            "Deliberately violate the availability SLO so the burn-rate \
             alert fires (exits 1)."
      $ diff $ tolerance)

(* ---- top -------------------------------------------------------------------- *)

(* Live observability drill: run a seeded serving workload with a watch
   attached (registry + fabric scrape, per-request latency sketch, alert
   rules) and render the deterministic dashboard.  [--follow] re-renders
   on every scrape tick; [--demo] kills all but one shard mid-run so the
   queueing latency step must trip the CUSUM alert (exercises the alert
   path; exits 1). *)
let top_cmd =
  let module Srv = Everest_serving in
  let module Res = Everest_resilience in
  let module W = Everest_watch in
  let interval =
    Arg.(
      value & opt Drill.positive 0.02
      & info [ "interval" ] ~docv:"T" ~doc:"Watch scrape interval in seconds.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ] ~doc:"Render the dashboard on every scrape tick.")
  in
  let run shards seed rate horizon interval follow format out demo =
    let tenants = [ Drill.acme ~rate_rps:rate () ] in
    let faults =
      if demo then
        (* capacity cliff at mid-horizon: survivors absorb the load and
           the queueing delay shows up as a latency step *)
        Res.Faults.of_failures
          (List.init (shards - 1) (fun i ->
               (Printf.sprintf "shard%d" (i + 1), 0.5 *. horizon)))
      else Res.Faults.none
    in
    let config =
      { (Srv.Fabric.default_config ~n_shards:shards) with
        Srv.Fabric.seed; faults }
    in
    let latency_labels = [ ("tenant", "acme") ] in
    let p99 =
      W.Rules.Quantile_over ("latency", latency_labels, 0.99, 0.2)
    in
    let rules =
      [ W.Rules.record "latency:p99" p99;
        W.Rules.alert "latency-step" p99
          (W.Rules.Detector (W.Detect.cusum ~drift:0.5 ~threshold:5.0 ()));
        W.Rules.alert "fleet-degraded"
          (W.Rules.Last ("fabric:alive_shards", []))
          (W.Rules.Below (float_of_int shards)) ]
    in
    let watch =
      W.Watch.create
        ~config:
          { W.Watch.default_config with W.Watch.wc_interval_s = interval }
        ~rules ()
    in
    if follow then
      W.Watch.on_tick watch (fun w ~now ->
          print_string (W.Live.render w ~now);
          print_string "\n");
    let r = Drill.fabric_run ~watch config ~tenants ~horizon in
    let now = horizon in
    let dashboard =
      match format with
      | `Text -> W.Live.render watch ~now
      | `Json -> W.Live.render_json watch ~now ^ "\n"
    in
    Option.iter (fun f -> Drill.write_file f dashboard) out;
    if not follow then print_string dashboard;
    let cusum_fired =
      List.exists
        (fun (a : W.Rules.alert_state) ->
          String.equal a.W.Rules.as_name "latency-step"
          && Everest_observe.Alarm.edges a.W.Rules.as_alarm > 0)
        (W.Watch.alert_states watch)
    in
    let served = Srv.Fabric.served_ok r in
    if demo then begin
      Printf.printf "demo: served=%d ticks=%d latency-step alert %s\n" served
        (W.Watch.ticks watch)
        (if cusum_fired then "FIRED (expected)" else "did NOT fire");
      (* like the other --demo drills: exit 1 iff the failure path ran *)
      if cusum_fired then exit 1
    end
    else
      Drill.conclude ~drill:"top"
        [ ("served", served > 0);
          ("scraped", W.Watch.ticks watch > 0);
          ("sketch_fed", W.Watch.samples watch > 0);
          ("no_false_alarms", W.Watch.alerts_total watch = 0) ]
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live observability drill: watch a seeded serving run and render \
          the dashboard.")
    Term.(
      const run $ Drill.shards ~default:4
      $ Drill.seed ~default:7 ~doc:"Workload seed."
      $ Drill.rate ~default:400.0 $ Drill.horizon ~default:0.4 $ interval
      $ follow
      $ Drill.format ~doc:"Dashboard format: text, json."
      $ Drill.out
          ~doc:"Write the final dashboard (in the chosen format) to FILE."
      $ Drill.demo
          ~doc:
            "Kill all but one shard mid-run: the latency step must trip the \
             CUSUM alert (exits 1).")

let () =
  let doc = "EVEREST SDK: compile, run and adapt HPDA applications." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "everest_cli" ~doc)
          [ compile_cmd; run_cmd; serve_cmd; recover_cmd; hls_cmd;
            telemetry_cmd; chaos_cmd; lint_cmd; observe_cmd; estee_cmd;
            plan_lint_cmd; top_cmd ]))
