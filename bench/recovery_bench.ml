(* E19: crash-consistent checkpoint/restore cost on the serving fabric.

     dune exec bench/recovery_bench.exe              # full sweep, writes BENCH_e19.json
     dune exec bench/recovery_bench.exe -- --quick   # CI sweep, BENCH_e19.quick.json

   Write-ahead journaling is only worth having if the fault-free run
   barely notices it, so the headline gate is the overhead of a
   journaled+snapshotted e16-scale serving run over the identical
   unjournaled run — <5% in the full sweep.  The second question is the
   operational trade the snapshot interval buys: snapshotting more often
   costs more snapshot bytes during the run but leaves a shorter journal
   tail to replay after a crash, so recovery time falls.  The sweep
   crashes the fabric halfway through the journal at each interval,
   restores, and reports recovery time plus the replayed-tail length —
   and byte-compares every resumed report against the uninterrupted run,
   so the bench doubles as an end-to-end identity check at bench scale. *)

module Srv = Everest_serving
module Res = Everest_resilience
module Rec = Everest_recovery
module Tel = Everest_telemetry

(* Measuring a 5% effect on a shared host is the hard part of this
   bench: identical back-to-back runs drift by ±15-30% in time
   (frequency scaling and co-tenant contention change the cycles a fixed
   workload costs), so an A-vs-B comparison of separately timed runs
   cannot resolve the gate.  The gated overhead is therefore measured by
   ATTRIBUTION: the fabric clocks its recovery code paths (payload
   encoding, journal appends, served-log encoding, snapshot writes) into
   [Store.work_s], and the fraction work/(total-work) comes from a
   single run — numerator and denominator share whatever noise
   multiplier the host applied, so it cancels.  The A/B median over
   interleaved pairs is still reported per row as a sanity cross-check,
   but it carries the host noise.  Runs are timed on the wall clock, the
   clock the fabric times [Store.work_s] with, so a journal write blocked
   on I/O counts on both sides of the fraction. *)
let now () = Unix.gettimeofday ()

let time_one f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

type row = {
  r_interval_s : float;
  r_run_s : float;  (* best journaled run wall time *)
  r_overhead : float;  (* median attributed work/(total-work) fraction *)
  r_ab_overhead : float;  (* median interleaved-pair A/B ratio - 1 (noisy) *)
  r_records : int;
  r_journal_kib : float;
  r_snapshots : int;
  r_snapshot_kib : float;
  r_resume_s : float;  (* restore + replay-to-front wall time after a mid-run kill *)
  r_replayed : int;  (* journal tail re-applied on restore *)
  r_identical : bool;  (* resumed report == uninterrupted report *)
}

let row_json r =
  Printf.sprintf
    "{\"snapshot_every_s\": %.3f, \"run_s\": %.6f, \"overhead_frac\": %.4f, \
     \"ab_overhead_frac\": %.4f, \
     \"journal_records\": %d, \"journal_kib\": %.1f, \"snapshots\": %d, \
     \"snapshot_kib\": %.1f, \"resume_s\": %.6f, \"replayed_records\": %d, \
     \"byte_identical\": %b}"
    r.r_interval_s r.r_run_s r.r_overhead r.r_ab_overhead r.r_records
    r.r_journal_kib r.r_snapshots r.r_snapshot_kib r.r_resume_s r.r_replayed
    r.r_identical

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  (* Full mode runs at e16 scale: E16's headline sweep peaks at 16
     shards, and 800 req/s per shard sits on its sustained-rate ladder.
     The scale matters for the gate — balancer, batching and monitor
     work per request grows with fleet size and load while the journal
     writes the same bytes per event, so this is the configuration whose
     overhead fraction the <5% budget is defined against. *)
  let shards = if quick then 2 else 16 in
  let rate = if quick then 2000.0 else 12800.0 in
  let horizon = if quick then 0.3 else 1.0 in
  let reps = if quick then 2 else 3 in
  let intervals = if quick then [ 0.05; 0.1 ] else [ 0.05; 0.1; 0.2; 0.5 ] in
  let seed = 19 in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "everest-bench-e19" in
  let tenants =
    [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
        ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
        ~features:(fun seq ->
          [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
        ();
      Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
        ~think_s:0.05 () ]
  in
  let config =
    { (Srv.Fabric.default_config ~n_shards:shards) with
      Srv.Fabric.seed;
      faults =
        Res.Faults.plan ~seed ~transient_prob:0.02 ~fpga_transient_prob:0.05
          () }
  in
  let fp = Srv.Fabric.fingerprint config ~tenants ~horizon in
  let run ?recovery () =
    Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ?recovery config
      ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
  in

  Printf.printf
    "E19: recovery overhead + snapshot-interval sweep (%d shards, %.0f \
     req/s, %.1fs horizon%s)\n\n\
     %!"
    shards rate horizon
    (if quick then ", quick" else "");

  (* ---- baseline reference output (also warms the process) ---- *)
  let plain_r = run () in
  let plain = Srv.Fabric.render plain_r in
  Printf.printf "unjournaled run: %d requests\n%!"
    (List.length plain_r.Srv.Fabric.f_log);
  let global_plain = ref infinity in

  (* ---- sweep: journaled run + mid-run kill per snapshot interval ---- *)
  let rows =
    List.map
      (fun interval ->
        let recovery store =
          { Srv.Fabric.rv_store = store; rv_snapshot_every_s = interval }
        in
        (* interleaved pairs: plain rep, journaled rep, plain rep, ...
           per journaled rep the gated estimate is the attributed
           work/(total-work) fraction; the per-pair A/B ratio rides
           along as the noisy cross-check.  The plain rep times the run;
           the journaled rep times the same run plus opening and closing
           its store.  Neither times the render or the counter reads,
           which would pad the denominator of the gated fraction. *)
        let plain_best = ref infinity and j_best = ref infinity in
        let ratios = ref [] and attrs = ref [] in
        let j_out = ref None in
        for _ = 1 to reps do
          let tp, _ = time_one (fun () -> run ()) in
          if tp < !plain_best then plain_best := tp;
          let tj, (r, store) =
            time_one (fun () ->
                let store =
                  Rec.Store.open_store ~fresh:true ~dir ~fingerprint:fp ()
                in
                let r = run ~recovery:(recovery store) () in
                Rec.Store.close store;
                (r, store))
          in
          let work_s = store.Rec.Store.work_s in
          if tj < !j_best then j_best := tj;
          ratios := (tj /. tp) :: !ratios;
          attrs := (work_s /. Float.max 1e-9 (tj -. work_s)) :: !attrs;
          j_out :=
            Some
              ( Srv.Fabric.render r,
                store.Rec.Store.records_written,
                store.Rec.Store.snapshots_written,
                store.Rec.Store.journal_bytes,
                store.Rec.Store.snapshot_bytes )
        done;
        let plain_s = !plain_best and run_s = !j_best in
        if plain_s < !global_plain then global_plain := plain_s;
        let median xs =
          let sorted = List.sort compare xs in
          List.nth sorted (List.length sorted / 2)
        in
        let attr_frac = median !attrs in
        let ab_ratio = median !ratios in
        let journaled, records, snapshots, jbytes, sbytes =
          Option.get !j_out
        in
        (* kill halfway through the journal, then restore *)
        let store = Rec.Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
        Rec.Store.arm_crash store ~after_records:(max 1 (records / 2));
        (try ignore (run ~recovery:(recovery store) ())
         with Rec.Journal.Crashed -> ());
        Rec.Store.close store;
        let resume_s, (resumed, report) =
          time_one (fun () ->
              let store = Rec.Store.open_store ~dir ~fingerprint:fp () in
              let r, rep =
                Srv.Fabric.resume ~registry:(Tel.Metrics.create_registry ())
                  ~recovery:(recovery store) config
                  ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
              in
              Rec.Store.close store;
              (Srv.Fabric.render r, rep))
        in
        let identical =
          String.equal plain journaled && String.equal plain resumed
        in
        let r =
          { r_interval_s = interval;
            r_run_s = run_s;
            r_overhead = attr_frac;
            r_ab_overhead = ab_ratio -. 1.0;
            r_records = records;
            r_journal_kib = float_of_int jbytes /. 1024.0;
            r_snapshots = snapshots;
            r_snapshot_kib = float_of_int sbytes /. 1024.0;
            r_resume_s = resume_s;
            r_replayed = report.Srv.Fabric.rr_replayed;
            r_identical = identical }
        in
        Printf.printf
          "  every %.3fs: plain %s, run %s, attributed %+.2f%% (A/B median \
           %+.1f%%), %d records / %d snapshots, resume %s replaying %d, \
           identical=%b\n\
           %!"
          interval (Util.time_str plain_s) (Util.time_str run_s)
          (100.0 *. r.r_overhead)
          (100.0 *. r.r_ab_overhead)
          records snapshots (Util.time_str resume_s) r.r_replayed identical;
        r)
      intervals
  in
  let plain_s = !global_plain in

  print_newline ();
  Util.table
    ~cols:
      [ "snapshot every"; "run"; "overhead"; "A/B"; "records"; "journal";
        "snapshots"; "snap KiB"; "resume"; "replayed" ]
    (List.map
       (fun r ->
         [ Printf.sprintf "%.3fs" r.r_interval_s; Util.time_str r.r_run_s;
           Printf.sprintf "%+.2f%%" (100.0 *. r.r_overhead);
           Printf.sprintf "%+.1f%%" (100.0 *. r.r_ab_overhead);
           string_of_int r.r_records;
           Printf.sprintf "%.0f KiB" r.r_journal_kib;
           string_of_int r.r_snapshots;
           Printf.sprintf "%.0f" r.r_snapshot_kib;
           Util.time_str r.r_resume_s; string_of_int r.r_replayed ])
       rows);

  (* ---- verdict ---- *)
  (* the gate reads the widest interval: that is the configuration where
     journaling itself (not snapshot serialization) dominates, i.e. the
     steady-state tax every fault-free run pays.  Quick CI runs at a
     fraction of e16 scale, where the per-event baseline is much lighter,
     so they only sanity-bound the fraction. *)
  let overhead_budget = if quick then 0.5 else 0.05 in
  let steady =
    List.fold_left
      (fun acc r -> if r.r_interval_s > acc.r_interval_s then r else acc)
      (List.hd rows) rows
  in
  let overhead_ok = steady.r_overhead < overhead_budget in
  let identity_ok = List.for_all (fun r -> r.r_identical) rows in
  (* shorter interval must not replay a longer tail than the longest one *)
  let shortest = List.hd rows in
  let longest = List.nth rows (List.length rows - 1) in
  let tail_ok = shortest.r_replayed <= longest.r_replayed in
  let passed = overhead_ok && identity_ok && tail_ok in
  let json =
    Printf.sprintf
      "{\n\
      \  \"shards\": %d,\n\
      \  \"rate_rps\": %.0f,\n\
      \  \"horizon_s\": %.2f,\n\
      \  \"unjournaled_s\": %.6f,\n\
      \  \"sweep\": [\n    %s\n  ],\n\
      \  \"steady_state_overhead_frac\": %.4f,\n\
      \  \"overhead_budget\": %.2f,\n\
      \  \"byte_identity\": %b,\n\
      \  \"quick\": %b,\n\
      \  \"passed\": %b\n\
       }\n"
      shards rate horizon plain_s
      (String.concat ",\n    " (List.map row_json rows))
      steady.r_overhead overhead_budget identity_ok quick passed
  in
  let record = Util.write_record ~id:"e19" ~quick json in
  Printf.printf
    "\nwrote %s\n\
     Expected shape: journaling + snapshotting tax the fault-free run by\n\
     a few percent (gated <%.0f%%), snapshotting more often trades\n\
     snapshot bytes for a shorter replay tail (so recovery gets faster),\n\
     and every resumed report is byte-identical to the uninterrupted\n\
     same-seed run.\n"
    record (100.0 *. overhead_budget);
  if not passed then begin
    Printf.eprintf
      "E19 FAILED: overhead_ok=%b (%.3f at %.3fs interval) identity_ok=%b \
       tail_ok=%b\n"
      overhead_ok steady.r_overhead steady.r_interval_s identity_ok tail_ok;
    exit 1
  end
