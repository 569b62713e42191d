(* Benchmark/experiment driver.

     dune exec bench/main.exe            # every experiment E1-E16 + micro
     dune exec bench/main.exe -- e5      # one experiment
     dune exec bench/main.exe -- micro   # Bechamel micro-benchmarks only

   E17-E20 live in their own drivers, each with --quick for the CI-sized
   sweep, because their full sweeps take minutes and should not slow
   `all` down:

     dune exec bench/estee.exe            # E17: Estee-style scheduler scale
     dune exec bench/planlint_bench.exe   # E18: plan-lint cost vs planning
     dune exec bench/recovery_bench.exe   # E19: checkpoint/restore cost
     dune exec bench/watch_bench.exe      # E20: watch overhead and detection

   The end-to-end and per-layer benchmark of the serving fabric and the
   workflow engine is everest_bench/ (bash everest_bench/run.sh; see its
   README).

   Each experiment regenerates one figure/claim of the paper; the mapping is
   documented in DESIGN.md section 3 and the measured results in
   EXPERIMENTS.md. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> Experiments.all ()
  | names ->
      List.iter
        (fun n ->
          match Experiments.by_name (String.lowercase_ascii n) with
          | Some f -> f ()
          | None ->
              Printf.eprintf
                "unknown experiment %S (expected e1..e16, micro, all; \
                 e17-e20 live in bench/estee.exe, bench/planlint_bench.exe, \
                 bench/recovery_bench.exe and bench/watch_bench.exe; the \
                 end-to-end benchmark is everest_bench/run.sh)\n"
                n;
              exit 1)
        names
