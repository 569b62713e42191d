(* E17: Estee-style DAG scheduling benchmark (million-task engine).

     dune exec bench/estee.exe              # full sweep, writes BENCH_e17.json
     dune exec bench/estee.exe -- --quick   # <= 10^4 tasks, BENCH_e17.quick.json

   Beránek et al. benchmark task schedulers with generated DAG families at
   increasing scale, reporting scheduled-tasks/second and the
   makespan-quality-vs-decision-time frontier.  This driver runs that
   methodology over the repository's production scheduler/executor stack:

   - throughput sweep: {layered, fork-join, ensemble} x {10^3..10^5(..10^6)}
     x every policy, planning wall-clock and simulated makespan;
   - quadratic baseline: the pre-memoization HEFT ([heft-reference]) on the
     layered family, giving the naive-vs-indexed speedup curve;
   - delta reschedule: [Scheduler.heft_delta] cone repair vs a full
     reschedule after node death, decision time and resulting makespan;
   - telemetry forcing: a traced ~10^6-span execution and the wall cost of
     forcing the lazy Observe report.

   Results land in BENCH_e17.json; EXPERIMENTS.md section E17 narrates a
   committed run. *)

module Wf = Everest_workflow
module Sb = Wf.Scalebench

let policies = [ "round-robin"; "min-load"; "heft"; "heft-locality" ]
let families = [ Sb.Layered; Sb.Fork_join; Sb.Ensemble ]

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  Util.header
    (if quick then "E17: Estee-style scheduling scale sweep (quick)"
     else "E17: Estee-style scheduling scale sweep");

  (* ---- throughput sweep ---- *)
  let scales = if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  let sweep =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun tasks ->
            List.map
              (fun policy ->
                (* simulated execution everywhere except the very largest
                   fork-join instances, where a 10^5-way join is a
                   degenerate shape we only plan *)
                let execute =
                  tasks <= 10_000
                  || (family = Sb.Layered && policy = "heft")
                in
                Sb.run_policy ~execute family ~tasks ~policy)
              policies)
          scales)
      families
  in
  Util.table
    ~cols:[ "family"; "tasks"; "policy"; "plan"; "tasks/s"; "makespan" ]
    (List.map
       (fun (s : Sb.sample) ->
         [ s.Sb.sb_family; string_of_int s.Sb.sb_tasks; s.Sb.sb_policy;
           Util.time_str s.Sb.sb_plan_wall_s; Util.si s.Sb.sb_tasks_per_s;
           (if s.Sb.sb_makespan_s < 0.0 then "-"
            else Printf.sprintf "%.1fs" s.Sb.sb_makespan_s) ])
       sweep);

  (* ---- scaling headroom: 10^6-task layered planning ---- *)
  let headroom =
    if quick then []
    else begin
      Printf.printf "\nplanning a 10^6-task layered DAG (HEFT)...\n%!";
      [ Sb.run_policy ~execute:false Sb.Layered ~tasks:1_000_000 ~policy:"heft" ]
    end
  in
  List.iter
    (fun (s : Sb.sample) ->
      Printf.printf "  %d tasks planned in %s (%s tasks/s)\n"
        s.Sb.sb_tasks
        (Util.time_str s.Sb.sb_plan_wall_s)
        (Util.si s.Sb.sb_tasks_per_s))
    headroom;

  (* ---- quadratic baseline: pre-PR HEFT on the layered family ---- *)
  let naive_scales = if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  Printf.printf "\nquadratic baseline (pre-memoization HEFT, layered):\n%!";
  let naive =
    List.map
      (fun tasks ->
        let s =
          Sb.run_policy ~execute:false Sb.Layered ~tasks ~policy:"heft-reference"
        in
        Printf.printf "  %6d tasks: %s (%s tasks/s)\n%!" s.Sb.sb_tasks
          (Util.time_str s.Sb.sb_plan_wall_s)
          (Util.si s.Sb.sb_tasks_per_s);
        s)
      naive_scales
  in
  let top = List.hd (List.rev naive_scales) in
  let find_layered_heft samples tasks =
    List.find_opt
      (fun (s : Sb.sample) ->
        s.Sb.sb_family = "layered" && s.Sb.sb_policy = "heft"
        && abs (s.Sb.sb_tasks - tasks) * 10 < tasks)
      samples
  in
  let speedup =
    match
      ( find_layered_heft sweep top,
        List.find_opt (fun (s : Sb.sample) -> abs (s.Sb.sb_tasks - top) * 10 < top) naive )
    with
    | Some fast, Some slow -> fast.Sb.sb_tasks_per_s /. slow.Sb.sb_tasks_per_s
    | _ -> 0.0
  in
  Printf.printf "\nHEFT speedup over pre-PR at %d tasks: %.1fx\n" top speedup;

  (* ---- delta vs full reschedule after node death ---- *)
  (* The repair cone is the dead node's tasks closed under consumers, so
     the DAG family decides how far death propagates: ensemble chains are
     independent, keeping the cone to the chain tails actually touching
     the dead node, while on a densely-wired layered DAG any seed set's
     cone swallows most of the graph within a few layers — delta repair
     then rightly degrades toward a full replan.  One case of each
     brackets the spectrum. *)
  let delta_scales = if quick then [ 10_000 ] else [ 10_000; 100_000 ] in
  Printf.printf "\ndelta (cone) reschedule vs full after node 'cf0' death:\n%!";
  let deltas =
    List.concat_map
      (fun tasks ->
        List.map
          (fun (family, dead) ->
            let d = Sb.run_delta ~execute:true family ~tasks ~dead in
            Printf.printf
              "  %6d tasks (%s): full %s, delta %s (%.1fx; %.1f%% of \
               tasks moved; makespan %.1fs vs %.1fs)\n%!"
              d.Sb.ds_tasks (Sb.family_name family)
              (Util.time_str d.Sb.ds_full_wall_s)
              (Util.time_str d.Sb.ds_delta_wall_s)
              (d.Sb.ds_full_wall_s /. d.Sb.ds_delta_wall_s)
              (100.0 *. d.Sb.ds_moved_frac)
              d.Sb.ds_full_makespan_s d.Sb.ds_delta_makespan_s;
            d)
          [ (Sb.Ensemble, "cf0"); (Sb.Layered, "cf0") ])
      delta_scales
  in

  (* ---- telemetry forcing on a ~10^6-span log ---- *)
  let tel_tasks = if quick then 20_000 else 440_000 in
  Printf.printf "\ntraced execution + report forcing (%d tasks)...\n%!" tel_tasks;
  let tel = Sb.run_telemetry ~repeats:(if quick then 3 else 5) ~tasks:tel_tasks () in
  Printf.printf
    "  %d spans; run %s, report forcing %s (%.2f%% of run)\n"
    tel.Sb.ts_spans
    (Util.time_str tel.Sb.ts_run_wall_s)
    (Util.time_str tel.Sb.ts_report_wall_s)
    (100.0 *. tel.Sb.ts_report_frac);

  (* ---- verdict + JSON ---- *)
  let speedup_ok = quick || speedup >= 50.0 in
  (* the <5% budget is a property of ~10^6-span logs; at quick scale fixed
     report costs dominate, so the smoke run only sanity-bounds it *)
  let telemetry_ok =
    tel.Sb.ts_report_frac < if quick then 0.25 else 0.05
  in
  let passed = speedup_ok && telemetry_ok in
  let json =
    Printf.sprintf
      "{\n\
      \  \"sweep\": [\n    %s\n  ],\n\
      \  \"headroom\": [\n    %s\n  ],\n\
      \  \"naive_baseline\": [\n    %s\n  ],\n\
      \  \"heft_speedup_at_top_scale\": %.2f,\n\
      \  \"delta\": [\n    %s\n  ],\n\
      \  \"telemetry\": %s,\n\
      \  \"quick\": %b,\n\
      \  \"passed\": %b\n\
       }\n"
      (String.concat ",\n    " (List.map Sb.sample_json sweep))
      (String.concat ",\n    " (List.map Sb.sample_json headroom))
      (String.concat ",\n    " (List.map Sb.sample_json naive))
      speedup
      (String.concat ",\n    " (List.map Sb.delta_json deltas))
      (Sb.telemetry_json tel)
      quick passed
  in
  let record = Util.write_record ~id:"e17" ~quick json in
  Printf.printf
    "\nwrote %s\n\
     Expected shape: planning throughput holds in the 10^5-10^6 tasks/s\n\
     range across families and scales (the pre-PR quadratic HEFT collapses\n\
     with n); cone repair after node death costs a small fraction of a full\n\
     reschedule at equal makespan; and forcing the report on a ~10^6-span\n\
     log stays under 5%% of the traced run.\n"
    record;
  if not passed then begin
    Printf.eprintf "E17 FAILED: speedup_ok=%b telemetry_ok=%b\n" speedup_ok
      telemetry_ok;
    exit 1
  end
