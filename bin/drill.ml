(* What the CLI drills (serve, recover, chaos, observe, top) share: their
   common flags, the demo fleet and breaker kernel they run, the fault plan
   scaled to a clean run, and the verdict path.

   A drill declares its checks as (name, ok) pairs.  From that list the
   harness derives whether the drill passed, the JSON "checks" object
   (ending in "passed"), the "check NAME ok|FAILED" lines padded to the
   longest name, the "<drill> drill passed|FAILED" line and exit status
   1 on failure.  The report body stays with each drill. *)

open Cmdliner
module Sdk = Everest.Sdk
module Orch = Sdk.Runtime.Orchestrator
module Obs = Everest_observe
module Res = Everest_resilience
module Srv = Everest_serving
module Wf = Sdk.Workflow

(* ---- flags ----------------------------------------------------------------- *)

let format ~doc =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~doc)

let seed ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"S" ~doc)

let demo ~doc = Arg.(value & flag & info [ "demo" ] ~doc)

let out ~doc =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

(* Typed numbers: a value out of range is rejected while the command line
   is parsed, so Cmdliner reports it against its flag and exits 124 before
   anything runs.  Every numeric flag but the seeds uses one of these. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg (Printf.sprintf "%s is not %s" s what))
    | r -> r
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let shard_count = checked Arg.int (fun n -> n >= 1) "a shard count (need at least 1)"

(* Sizes and task or request counts. *)
let positive_int = checked Arg.int (fun n -> n >= 1) "a positive integer"

(* Retry budgets and other counts where 0 means none. *)
let count = checked Arg.int (fun n -> n >= 0) "an integer >= 0"

(* Rates, horizons and intervals. *)
let positive =
  checked Arg.float
    (fun x -> Float.is_finite x && x > 0.0)
    "a positive finite number"

(* Budgets, tolerances and fractions where 0 disables or means none. *)
let non_negative =
  checked Arg.float
    (fun x -> Float.is_finite x && x >= 0.0)
    "a finite number >= 0"

let probability =
  checked Arg.float (fun p -> p >= 0.0 && p <= 1.0) "a probability in [0, 1]"

let shards ~default =
  Arg.(
    value & opt shard_count default
    & info [ "shards" ] ~docv:"N" ~doc:"Shard count.")

let rate ~default =
  Arg.(
    value & opt positive default
    & info [ "rate" ] ~docv:"RPS" ~doc:"Open-loop tenant arrival rate.")

let horizon ~default =
  Arg.(
    value & opt positive default
    & info [ "horizon" ] ~docv:"T" ~doc:"Workload horizon in seconds.")

(* ---- files ----------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* A command input that cannot be used: one stderr line naming the command
   and the file, exit 2. *)
let input_error ~cmd file msg =
  Printf.eprintf "%s: %s: %s\n" cmd file
    (String.trim (String.map (fun c -> if c = '\n' then ' ' else c) msg));
  exit 2

(* ---- workloads -------------------------------------------------------------- *)

(* The open-loop tenant of the fabric drills; each sets its rate and shape. *)
let acme =
  Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~features:(fun seq ->
      [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])

let globex =
  Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
    ~think_s:0.05 ()

let fabric_run ?recovery ?watch config ~tenants ~horizon =
  Srv.Fabric.run ~registry:(Everest_telemetry.Metrics.create_registry ())
    ?recovery ?watch config ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants
    ~horizon

(* Kernel "k" on one POWER9 host: a sw variant, and an hw variant behind a
   breaker that opens after two failures and probes again after 10 ms. *)
let breaker_kernel ?registry () =
  let cluster =
    Sdk.Platform.Cluster.create [ Sdk.Platform.Cluster.power9_node "p9" ]
  in
  let orch = Orch.create ?registry cluster ~host_name:"p9" in
  let estimate =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 8.0 }
  in
  let dk =
    Orch.deploy orch
      ~breaker:
        { Res.Breaker.failure_threshold = 2; cooldown_s = 0.01;
          half_open_probes = 1 }
      ~kname:"k"
      ~impls:
        [ ("sw", Orch.Sw { flops = 5e8; bytes = 1e5; threads = 2 });
          ("hw",
           Orch.Hw
             { bitstream = "k"; estimate; in_bytes = 4096; out_bytes = 4096 })
        ]
      ~knowledge:
        (Everest_autotune.Knowledge.create "k"
           [ { Everest_autotune.Knowledge.variant = "sw"; features = [];
               metrics = [ ("time_s", 0.01) ] };
             { Everest_autotune.Knowledge.variant = "hw"; features = [];
               metrics = [ ("time_s", 0.001) ] } ])
      ~goal:
        (Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  (orch, dk)

(* A seeded fault plan over the demonstrator's nodes whose horizon is
   [dag]'s clean makespan under [policy], with the mean downtime given as
   a fraction of it.  Returns the clean makespan too. *)
let scaled_faults ~seed ~policy ~fault_rate ~mean_downtime ~transient
    ~fpga_transient dag =
  let nodes =
    List.map
      (fun (n : Sdk.Platform.Node.t) -> n.Sdk.Platform.Node.name)
      (Sdk.Platform.Cluster.everest_demonstrator ()).Sdk.Platform.Cluster.nodes
  in
  let _, clean = Wf.Executor.run_on_demonstrator ~policy dag in
  let makespan = clean.Wf.Executor.makespan in
  ( makespan,
    Res.Faults.random_plan ~seed ~fault_rate
      ~mean_downtime:(mean_downtime *. makespan) ~transient_prob:transient
      ~fpga_transient_prob:fpga_transient ~nodes ~horizon:makespan () )

let completed_tasks (s : Wf.Executor.stats) =
  Array.fold_left
    (fun acc f -> if f >= 0.0 then acc + 1 else acc)
    0 s.Wf.Executor.task_finish

(* ---- verdict ---------------------------------------------------------------- *)

let passed checks = List.for_all snd checks

(* The check lines (unless [list_checks] is false: the drill's text body
   already reports them), the drill line, and exit 1 on failure. *)
let conclude ?(list_checks = true) ~drill checks =
  if list_checks then begin
    let width =
      1 + List.fold_left (fun w (n, _) -> max w (String.length n)) 0 checks
    in
    List.iter
      (fun (n, ok) ->
        Printf.printf "check %-*s %s\n" width n (if ok then "ok" else "FAILED"))
      checks
  end;
  Printf.printf "%s drill %s\n" drill
    (if passed checks then "passed" else "FAILED");
  if not (passed checks) then exit 1

(* A drill whose report is a JSON object: [fields] plus the "checks"
   object.  --out always gets the JSON; stdout gets it too, or [text]
   followed by [conclude]. *)
let report ?list_checks ~drill ~format ~out ~fields ~text checks =
  let checks_json =
    List.map (fun (n, ok) -> (n, Obs.Json.Bool ok)) checks
    @ [ ("passed", Obs.Json.Bool (passed checks)) ]
  in
  let json =
    Obs.Json.to_string ~pretty:true
      (Obs.Json.Obj (fields @ [ ("checks", Obs.Json.Obj checks_json) ]))
    ^ "\n"
  in
  Option.iter (fun f -> write_file f json) out;
  match format with
  | `Json ->
      print_string json;
      if not (passed checks) then exit 1
  | `Text ->
      text ();
      conclude ?list_checks ~drill checks
