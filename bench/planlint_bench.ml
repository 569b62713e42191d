(* E18: static plan sanitization at million-task scale.

     dune exec bench/planlint_bench.exe              # full sweep, writes BENCH_e18.json
     dune exec bench/planlint_bench.exe -- --quick   # <= 10^4 tasks, BENCH_e18.quick.json

   The planlint analyzer is a pre-run gate: every executed plan pays for
   it, so its cost must stay a small fraction of what producing the plan
   cost.  This driver measures, over the estee DAG families:

   - reachability index: build wall and query throughput at 10^3..10^6
     tasks (the O(n·chains) labeling that carries the happens-before
     proof);
   - full lint vs HEFT planning: analyzer wall as a fraction of
     [Scheduler.heft] wall at each scale — gated at <5% at the top scale;
   - defect detection: the seeded defect classes of `plan-lint --demo`
     re-checked here so the bench fails loudly if the analyzer ever stops
     seeing one.

   Results land in BENCH_e18.json; EXPERIMENTS.md section E18 narrates a
   committed run. *)

module Wf = Everest_workflow
module Sb = Wf.Scalebench
module Pl = Wf.Planlint
module Sched = Wf.Scheduler
module Dag = Wf.Dag
module Lint = Everest_analysis.Lint
module Cluster = Everest_platform.Cluster

let now () = Unix.gettimeofday ()

type row = {
  r_family : string;
  r_tasks : int;
  r_heft_s : float;
  r_lint_s : float;
  r_frac : float;  (* lint / heft *)
  r_reach_build_s : float;
  r_query_per_s : float;
  r_chains : int;
  r_diags : int;
}

let row_json r =
  Printf.sprintf
    "{\"family\": \"%s\", \"tasks\": %d, \"heft_s\": %.6f, \"lint_s\": \
     %.6f, \"lint_frac\": %.4f, \"reach_build_s\": %.6f, \"reach_query_per_s\": \
     %.0f, \"chains\": %d, \"diags\": %d}"
    r.r_family r.r_tasks r.r_heft_s r.r_lint_s r.r_frac r.r_reach_build_s
    r.r_query_per_s r.r_chains r.r_diags

(* walls are minima over repeated runs: on a shared single-core host a
   single sample aliases GC major slices and scheduler preemption, and the
   minimum is the closest observable to the actual cost of a pass *)
let time_min reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (!best, Option.get !result)

let bench_scale family tasks =
  let c = Cluster.everest_demonstrator () in
  let d = Sb.make_dag family ~tasks in
  let heft_s, plan = time_min 2 (fun () -> Sched.heft c d) in
  let lint_s, summary = time_min 3 (fun () -> Pl.analyze c plan) in
  let t0 = now () in
  let r = Pl.Reach.build plan in
  let reach_build_s = now () -. t0 in
  (* query throughput over a deterministic pseudo-random pair stream *)
  let n = Pl.Reach.tasks r in
  let queries = 1_000_000 in
  let hits = ref 0 in
  let state = ref 123456789 in
  let next () =
    state := (!state * 1103515245) + 12345;
    (!state lsr 7) land max_int
  in
  let t0 = now () in
  for _ = 1 to queries do
    let u = next () mod n and v = next () mod n in
    if Pl.Reach.reaches r u v then incr hits
  done;
  let query_s = now () -. t0 in
  ignore !hits;
  { r_family = Sb.family_name family;
    r_tasks = Dag.size d;
    r_heft_s = heft_s;
    r_lint_s = lint_s;
    r_frac = lint_s /. heft_s;
    r_reach_build_s = reach_build_s;
    r_query_per_s = float_of_int queries /. query_s;
    r_chains = summary.Pl.pl_chains;
    r_diags = List.length summary.Pl.pl_diags }

(* the CLI demo's defect classes, re-verified here so the scale bench also
   guards detection (a fast analyzer that stops seeing defects is worse
   than a slow one) *)
let defects_caught () =
  let c = Cluster.everest_demonstrator () in
  let cpu = Dag.Cpu { flops = 1e9; bytes = 4096.0; threads = 1 } in
  let est =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 5.0 }
  in
  let fpga b =
    Dag.Fpga { bitstream = b; estimate = est; in_bytes = 4096; out_bytes = 1024 }
  in
  let has code ds = List.exists (fun d -> String.equal d.Lint.code code) ds in
  let chain =
    Dag.create "chain"
      (List.init 3 (fun i ->
           Dag.task ~id:i ~name:(Printf.sprintf "c%d" i)
             ~inputs:(if i = 0 then [] else [ i - 1 ])
             ~out_bytes:4096 ~impls:[ cpu ] ()))
  in
  let rr d =
    match Sched.by_name "round-robin" with
    | Some f -> f c d
    | None -> assert false
  in
  let edge_drop =
    let tasks = Array.copy chain.Dag.tasks in
    tasks.(2) <- { (tasks.(2)) with Dag.inputs = [] };
    let cut = { chain with Dag.tasks = tasks } in
    let ds = Pl.check ~dag:chain c (rr cut) in
    has "EV110" ds && has "EV111" ds
  in
  let off_pin =
    let d =
      Dag.create "pinned"
        [ Dag.task ~id:0 ~name:"src" ~pinned:(Some "ep0") ~inputs:[]
            ~out_bytes:4096 ~impls:[ cpu ] ();
          Dag.task ~id:1 ~name:"sink" ~inputs:[ 0 ] ~out_bytes:64
            ~impls:[ cpu ] () ]
    in
    let plan = Sched.heft c d in
    let assignments = Array.copy plan.Sched.assignments in
    assignments.(0) <- { (assignments.(0)) with Sched.node = "cf0" };
    has "EV120" (Pl.check c { plan with Sched.assignments })
  in
  let capability =
    let d =
      Dag.create "cap"
        [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:1024
            ~impls:[ fpga "k" ] () ]
    in
    let plan =
      { Sched.dag = d;
        assignments = [| { Sched.node = "ep0"; impl = fpga "k" } |];
        policy = "manual" }
    in
    has "EV122" (Pl.check c plan)
  in
  let oversubscription =
    let width = 8 in
    let d =
      Dag.create "wide"
        (Dag.task ~id:0 ~name:"src" ~inputs:[] ~out_bytes:4096 ~impls:[ cpu ]
           ()
        :: List.init width (fun i ->
               Dag.task ~id:(i + 1)
                 ~name:(Printf.sprintf "w%d" i)
                 ~inputs:[ 0 ] ~out_bytes:1024
                 ~impls:[ fpga (Printf.sprintf "bit%d" i) ]
                 ()))
    in
    let assignments =
      Array.init (width + 1) (fun i ->
          if i = 0 then { Sched.node = "ep0"; impl = cpu }
          else
            { Sched.node = "cf0"; impl = fpga (Printf.sprintf "bit%d" (i - 1)) })
    in
    let ds = Pl.check c { Sched.dag = d; assignments; policy = "manual" } in
    has "EV130" ds && has "EV131" ds
  in
  let infeasible_slo =
    has "EV140" (Pl.check ~deadline_s:1e-6 c (Sched.heft c chain))
  in
  [ ("precedence-break", edge_drop); ("off-pin", off_pin);
    ("capability-mismatch", capability);
    ("slot-oversubscription", oversubscription);
    ("infeasible-slo", infeasible_slo) ]

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  Util.header
    (if quick then "E18: plan sanitization scale sweep (quick)"
     else "E18: plan sanitization scale sweep");

  (* ---- lint-vs-plan sweep ---- *)
  let scales =
    if quick then [ 1_000; 10_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let rows =
    List.concat_map
      (fun tasks ->
        List.map
          (fun family ->
            let r = bench_scale family tasks in
            Printf.printf
              "  %-9s %7d tasks: heft %s, lint %s (%.1f%%), reach build \
               %s, %s queries/s\n%!"
              r.r_family r.r_tasks (Util.time_str r.r_heft_s)
              (Util.time_str r.r_lint_s)
              (100.0 *. r.r_frac)
              (Util.time_str r.r_reach_build_s)
              (Util.si r.r_query_per_s);
            r)
          [ Sb.Layered; Sb.Fork_join; Sb.Ensemble ])
      scales
  in
  Util.table
    ~cols:
      [ "family"; "tasks"; "heft"; "lint"; "lint/heft"; "reach build";
        "queries/s"; "chains"; "diags" ]
    (List.map
       (fun r ->
         [ r.r_family; string_of_int r.r_tasks; Util.time_str r.r_heft_s;
           Util.time_str r.r_lint_s;
           Printf.sprintf "%.1f%%" (100.0 *. r.r_frac);
           Util.time_str r.r_reach_build_s; Util.si r.r_query_per_s;
           string_of_int r.r_chains; string_of_int r.r_diags ])
       rows);

  (* ---- defect detection ---- *)
  Printf.printf "\nseeded defect classes:\n";
  let defects = defects_caught () in
  List.iter
    (fun (name, ok) ->
      Printf.printf "  %-22s %s\n" name (if ok then "caught" else "MISSED"))
    defects;

  (* ---- verdict + JSON ---- *)
  let top = List.fold_left (fun acc r -> max acc r.r_tasks) 0 rows in
  let top_rows = List.filter (fun r -> r.r_tasks >= top * 9 / 10) rows in
  (* at quick scale fixed costs (cluster probes, allocation) dominate the
     tiny HEFT wall, so the smoke run only sanity-bounds the fraction *)
  let frac_budget = if quick then 0.5 else 0.05 in
  (* the gate is the top-scale fraction aggregated over the families: a
     single family's ratio on one run moves +-30% with host noise (the
     numerator is ~100ms on a shared core), while the pooled ratio is
     stable; per-family fractions are still reported above *)
  let agg_frac =
    let lint = List.fold_left (fun a r -> a +. r.r_lint_s) 0.0 top_rows in
    let heft = List.fold_left (fun a r -> a +. r.r_heft_s) 0.0 top_rows in
    lint /. heft
  in
  let worst_frac =
    List.fold_left (fun acc r -> Float.max acc r.r_frac) 0.0 top_rows
  in
  let frac_ok = agg_frac < frac_budget in
  let clean_ok = List.for_all (fun r -> r.r_diags = 0) rows in
  let defects_ok = List.for_all snd defects in
  let passed = frac_ok && clean_ok && defects_ok in
  let json =
    Printf.sprintf
      "{\n\
      \  \"sweep\": [\n    %s\n  ],\n\
      \  \"lint_frac_at_top_scale\": %.4f,\n\
      \  \"worst_family_frac_at_top_scale\": %.4f,\n\
      \  \"frac_budget\": %.2f,\n\
      \  \"defects\": {%s},\n\
      \  \"quick\": %b,\n\
      \  \"passed\": %b\n\
       }\n"
      (String.concat ",\n    " (List.map row_json rows))
      agg_frac worst_frac frac_budget
      (String.concat ", "
         (List.map
            (fun (name, ok) -> Printf.sprintf "\"%s\": %b" name ok)
            defects))
      quick passed
  in
  let record = Util.write_record ~id:"e18" ~quick json in
  Printf.printf
    "\nwrote %s\n\
     Expected shape: linting a plan costs a few percent of producing it\n\
     at every scale (gated <%.0f%% at %s tasks), the reachability index\n\
     builds in O(n*chains) and answers ~10^7 queries/s, every shipped\n\
     plan is clean, and every seeded defect class is caught.\n"
    record (100.0 *. frac_budget)
    (Util.si (float_of_int top));
  if not passed then begin
    Printf.eprintf
      "E18 FAILED: frac_ok=%b (aggregate %.3f, worst family %.3f) \
       clean_ok=%b defects_ok=%b\n"
      frac_ok agg_frac worst_frac clean_ok defects_ok;
    exit 1
  end
