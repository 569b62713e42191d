(* E20: watch overhead, determinism and detection on the serving fabric.

     dune exec bench/watch_bench.exe              # full sweep, writes BENCH_e20.json
     dune exec bench/watch_bench.exe -- --quick   # CI sweep, BENCH_e20.quick.json

   A monitoring layer earns its keep only if watching costs almost
   nothing and changes nothing.  Three claims are gated here, at the same
   e16 scale the recovery bench uses (16 shards, 12800 req/s, 1 s):

     1. Overhead: scraping + sketch feeds + rule evaluation tax the
        watched run by <5% (full mode).
     2. Nothing changes: the watched run's served log / SLO verdicts /
        summary are byte-identical to the unwatched same-seed run, and
        two watched runs render byte-identical dashboards.
     3. It actually detects: a capacity cliff (all but one shard killed
        mid-run) must trip the CUSUM latency alert, while the clean run
        must raise zero alerts — sensitivity without false positives. *)

module Srv = Everest_serving
module Res = Everest_resilience
module Tel = Everest_telemetry
module W = Everest_watch

(* Same rationale as E19: a <5% effect cannot be resolved by A/B-timing
   separate runs on a shared host (±15-30% drift), so the gated number is
   ATTRIBUTED — the watch clocks its own code paths (scrape ticks, rule
   evaluation, sketch observes) into [Watch.work_s], and the fraction
   work/(total-work) comes out of a single run where the host's noise
   multiplier cancels.  Runs are timed on the wall clock, the clock the
   watch times [Watch.work_s] with. *)
let now () = Unix.gettimeofday ()

let time_one f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

type row = {
  r_interval_s : float;
  r_run_s : float;  (* best watched run wall time *)
  r_overhead : float;  (* median attributed work/(total-work) fraction *)
  r_ticks : int;
  r_series : int;
  r_sketch_samples : int;
  r_log_identical : bool;  (* watched fabric output == unwatched *)
  r_dash_identical : bool;  (* two watched runs render the same dashboard *)
}

let row_json r =
  Printf.sprintf
    "{\"interval_s\": %.3f, \"run_s\": %.6f, \"overhead_frac\": %.4f, \
     \"ticks\": %d, \"series\": %d, \"sketch_samples\": %d, \
     \"log_identical\": %b, \"dashboard_identical\": %b}"
    r.r_interval_s r.r_run_s r.r_overhead r.r_ticks r.r_series
    r.r_sketch_samples r.r_log_identical r.r_dash_identical

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  (* e16 scale in full mode, for the same reason as E19: per-request
     fabric work grows with fleet size and load while a scrape tick costs
     the same, so this is the configuration the <5% budget is defined
     against. *)
  let shards = if quick then 2 else 16 in
  let rate = if quick then 2000.0 else 12800.0 in
  let horizon = if quick then 0.3 else 1.0 in
  let reps = if quick then 2 else 3 in
  let intervals = if quick then [ 0.01; 0.05 ] else [ 0.005; 0.01; 0.02; 0.05 ] in
  let seed = 20 in
  let tenants =
    [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
        ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
        ~features:(fun seq ->
          [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
        ();
      Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
        ~think_s:0.05 () ]
  in
  let config ~faults =
    { (Srv.Fabric.default_config ~n_shards:shards) with Srv.Fabric.seed; faults }
  in
  let rules ~n_shards () =
    let p99 =
      W.Rules.Quantile_over ("latency", [ ("tenant", "acme") ], 0.99, 0.2)
    in
    [ W.Rules.record "latency:p99" p99;
      W.Rules.alert "latency-step" p99
        (W.Rules.Detector (W.Detect.cusum ~drift:0.5 ~threshold:5.0 ()));
      W.Rules.alert "fleet-degraded"
        (W.Rules.Last ("fabric:alive_shards", []))
        (W.Rules.Below (float_of_int n_shards)) ]
  in
  let mk_watch interval =
    W.Watch.create
      ~config:{ W.Watch.default_config with W.Watch.wc_interval_s = interval }
      ~rules:(rules ~n_shards:shards ()) ()
  in
  let render r =
    Srv.Fabric.render_log r ^ "\n" ^ Srv.Fabric.render_slos r ^ "\n"
    ^ Srv.Fabric.render_summary r
  in
  let run ?watch ?(tenants = tenants) ~faults () =
    Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ?watch
      (config ~faults) ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
  in

  Printf.printf
    "E20: watch overhead + determinism + detection (%d shards, %.0f req/s, \
     %.1fs horizon%s)\n\n\
     %!"
    shards rate horizon
    (if quick then ", quick" else "");

  (* ---- baseline reference output (also warms the process) ---- *)
  let plain_r = run ~faults:Res.Faults.none () in
  let plain = render plain_r in
  Printf.printf "unwatched run: %d requests\n%!"
    (List.length plain_r.Srv.Fabric.f_log);

  (* ---- sweep: watched run per scrape interval ---- *)
  let rows =
    List.map
      (fun interval ->
        let best = ref infinity and attrs = ref [] in
        let last = ref None in
        for _ = 1 to reps do
          let w = mk_watch interval in
          let t, r = time_one (fun () -> run ~watch:w ~faults:Res.Faults.none ()) in
          if t < !best then best := t;
          let work = W.Watch.work_s w in
          attrs := (work /. Float.max 1e-9 (t -. work)) :: !attrs;
          last := Some (r, w)
        done;
        let r1, w1 = Option.get !last in
        (* a second watched run: same-seed dashboards must render
           byte-identically *)
        let w2 = mk_watch interval in
        ignore (run ~watch:w2 ~faults:Res.Faults.none ());
        let dash w = W.Live.render w ~now:horizon ^ W.Live.render_json w ~now:horizon in
        let median xs =
          let sorted = List.sort compare xs in
          List.nth sorted (List.length sorted / 2)
        in
        let row =
          { r_interval_s = interval;
            r_run_s = !best;
            r_overhead = median !attrs;
            r_ticks = W.Watch.ticks w1;
            r_series = W.Series.Store.size (W.Watch.store w1);
            r_sketch_samples = W.Watch.samples w1;
            r_log_identical = String.equal plain (render r1);
            r_dash_identical = String.equal (dash w1) (dash w2) }
        in
        Printf.printf
          "  every %.3fs: run %s, attributed %+.2f%%, %d ticks, %d series, \
           %d sketch samples, log_identical=%b dash_identical=%b\n\
           %!"
          interval (Util.time_str row.r_run_s)
          (100.0 *. row.r_overhead)
          row.r_ticks row.r_series row.r_sketch_samples row.r_log_identical
          row.r_dash_identical;
        row)
      intervals
  in

  (* ---- detection: capacity cliff must trip CUSUM, clean run must not ---- *)
  (* This half of the bench asks a correctness question, not a scale one,
     so it always runs the same moderate configuration as the CLI [top]
     drill: 4 shards at 400 req/s with a stationary arrival process.  At
     the saturated e16 sweep scale above the p99 genuinely drifts with
     load (a real signal a drift detector should see), which would make
     "the clean run trips nothing" a statement about the workload rather
     than about the detector. *)
  let d_shards = 4 and d_rate = 400.0 and d_horizon = 0.4 in
  let detect_tenants =
    [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:d_rate
        ~features:(fun seq ->
          [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
        () ]
  in
  let detect_run ~watch ~faults =
    let config =
      { (Srv.Fabric.default_config ~n_shards:d_shards) with
        Srv.Fabric.seed;
        faults }
    in
    ignore
      (Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ~watch config
         ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants:detect_tenants
         ~horizon:d_horizon)
  in
  let kill_faults =
    Res.Faults.of_failures
      (List.init (d_shards - 1) (fun i ->
           (Printf.sprintf "shard%d" (i + 1), 0.5 *. d_horizon)))
  in
  let mk_detect_watch () =
    W.Watch.create
      ~config:{ W.Watch.default_config with W.Watch.wc_interval_s = 0.01 }
      ~rules:(rules ~n_shards:d_shards ()) ()
  in
  let w_clean = mk_detect_watch () in
  detect_run ~watch:w_clean ~faults:Res.Faults.none;
  let w_fault = mk_detect_watch () in
  detect_run ~watch:w_fault ~faults:kill_faults;
  let edges w name =
    List.fold_left
      (fun acc (a : W.Rules.alert_state) ->
        if String.equal a.W.Rules.as_name name then
          acc + Everest_observe.Alarm.edges a.W.Rules.as_alarm
        else acc)
      0
      (W.Watch.alert_states w)
  in
  let clean_edges = W.Watch.alerts_total w_clean in
  let fault_cusum = edges w_fault "latency-step" in
  Printf.printf
    "\ndetection: clean run %d alert edges, capacity-cliff run CUSUM edges \
     %d (fleet-degraded %d)\n\
     %!"
    clean_edges fault_cusum
    (edges w_fault "fleet-degraded");

  print_newline ();
  Util.table
    ~cols:
      [ "interval"; "run"; "overhead"; "ticks"; "series"; "sketch obs";
        "log id"; "dash id" ]
    (List.map
       (fun r ->
         [ Printf.sprintf "%.3fs" r.r_interval_s; Util.time_str r.r_run_s;
           Printf.sprintf "%+.2f%%" (100.0 *. r.r_overhead);
           string_of_int r.r_ticks; string_of_int r.r_series;
           string_of_int r.r_sketch_samples;
           string_of_bool r.r_log_identical;
           string_of_bool r.r_dash_identical ])
       rows);

  (* ---- verdict ---- *)
  (* The gate reads the densest interval: that is where scraping costs
     the most, i.e. the worst tax a watched fault-free run pays.  Quick
     CI runs far below e16 scale, where the fabric baseline is much
     lighter per tick, so they only sanity-bound the fraction. *)
  let overhead_budget = if quick then 0.5 else 0.05 in
  let densest =
    List.fold_left
      (fun acc r -> if r.r_interval_s < acc.r_interval_s then r else acc)
      (List.hd rows) rows
  in
  let overhead_ok = densest.r_overhead < overhead_budget in
  let identity_ok =
    List.for_all (fun r -> r.r_log_identical && r.r_dash_identical) rows
  in
  let detect_ok = clean_edges = 0 && fault_cusum > 0 in
  let passed = overhead_ok && identity_ok && detect_ok in
  let json =
    Printf.sprintf
      "{\n\
      \  \"shards\": %d,\n\
      \  \"rate_rps\": %.0f,\n\
      \  \"horizon_s\": %.2f,\n\
      \  \"sweep\": [\n    %s\n  ],\n\
      \  \"densest_overhead_frac\": %.4f,\n\
      \  \"overhead_budget\": %.2f,\n\
      \  \"byte_identity\": %b,\n\
      \  \"clean_alert_edges\": %d,\n\
      \  \"cliff_cusum_edges\": %d,\n\
      \  \"quick\": %b,\n\
      \  \"passed\": %b\n\
       }\n"
      shards rate horizon
      (String.concat ",\n    " (List.map row_json rows))
      densest.r_overhead overhead_budget identity_ok clean_edges fault_cusum
      quick passed
  in
  let record = Util.write_record ~id:"e20" ~quick json in
  Printf.printf
    "\nwrote %s\n\
     Expected shape: watching taxes the fault-free run by well under\n\
     %.0f%% even at the densest scrape interval, the watched run's output\n\
     and two watched runs' dashboards are byte-identical, the capacity\n\
     cliff trips the CUSUM latency alert and the clean run trips nothing.\n"
    record (100.0 *. overhead_budget);
  if not passed then begin
    Printf.eprintf
      "E20 FAILED: overhead_ok=%b (%.3f at %.3fs interval) identity_ok=%b \
       detect_ok=%b (clean=%d cliff=%d)\n"
      overhead_ok densest.r_overhead densest.r_interval_s identity_ok
      detect_ok clean_edges fault_cusum;
    exit 1
  end
