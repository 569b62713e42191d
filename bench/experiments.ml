(* Experiments E1-E10: the executable counterpart of every figure and claim
   of the EVEREST paper (see DESIGN.md section 3 for the mapping, and
   EXPERIMENTS.md for recorded results). *)

open Util
module TE = Everest_dsl.Tensor_expr
module Dsl = Everest_dsl
module Comp = Everest_compiler
module Hls = Everest_hls
module Plat = Everest_platform
module Wf = Everest_workflow
module Rt = Everest_runtime
module At = Everest_autotune
module Sec = Everest_security

let matmul_expr n = TE.matmul (TE.input "a" [ n; n ]) (TE.input "b" [ n; n ])

(* ================================================================== E1 == *)
(* Fig. 1: the data-driven compilation flow end to end. *)

let e1 () =
  header "E1 (Fig. 1): data-driven compilation flow — DSE cost and results";
  let rows =
    List.concat_map
      (fun n ->
        let e = matmul_expr n in
        let oracle = Comp.Dse.exhaustive e in
        let sampled = Comp.Dse.sampled ~budget:12 e in
        let greedy = Comp.Dse.greedy e in
        List.map
          (fun (name, (r : Comp.Dse.result)) ->
            [ Printf.sprintf "matmul %dx%d" n n; name;
              string_of_int r.Comp.Dse.explored;
              string_of_int (List.length r.Comp.Dse.variants);
              (match r.Comp.Dse.best_time with
              | Some v -> time_str v.Comp.Variants.time_s
              | None -> "-");
              f2 (Comp.Dse.quality r oracle) ])
          [ ("exhaustive", oracle); ("sampled-12", sampled); ("greedy", greedy) ])
      [ 64; 256 ]
  in
  table
    ~cols:[ "kernel"; "strategy"; "evals"; "pareto"; "best time"; "quality" ]
    rows;
  (* compilation pipeline statistics on the quickstart-like app *)
  let g = Dsl.Dataflow.create "e1app" in
  let src = Dsl.Dataflow.source g "in" ~bytes:65536 in
  let t1 =
    Dsl.Dataflow.task g "k1" (Dsl.Dataflow.Tensor_kernel (matmul_expr 64))
      ~deps:[ src ]
  in
  let _ =
    Dsl.Dataflow.task g "k2"
      (Dsl.Dataflow.Tensor_kernel (TE.relu (TE.input "x" [ 64; 64 ])))
      ~deps:[ t1 ]
  in
  let app = Comp.Pipeline.compile g in
  Printf.printf "\ncompile pipeline: %d kernels, %d total Pareto variants, %d IR ops\n"
    (List.length app.Comp.Pipeline.kernels)
    (Comp.Pipeline.total_variants app)
    (Everest_ir.Ir.module_op_count app.Comp.Pipeline.ir);
  List.iter
    (fun r -> Printf.printf "  pass %s\n" (Fmt.str "%a" Everest_ir.Pass.pp_report r))
    app.Comp.Pipeline.pass_reports;
  (* middle-end pipeline on deliberately redundant IR: lowered matmul with a
     dead duplicate chain, then unroll+canonicalize the inner loop *)
  Printf.printf "\nmiddle-end passes on a lowered 16x16 matmul kernel:\n";
  Everest_ir.Registry.register_all ();
  let ctx = Everest_ir.Ir.ctx () in
  let e = matmul_expr 16 in
  let f0 = Comp.Loops.lower_func ctx (Dsl.Lower.lower_expr ctx e) in
  let m0 = Everest_ir.Ir.modul "k" [ f0 ] in
  let m1, reports =
    Everest_ir.Pass.run_pipeline ctx
      (Everest_ir.Transforms.standard_pipeline @ [ Comp.Loop_fusion.pass ])
      m0
  in
  List.iter
    (fun r -> Printf.printf "  pass %s\n" (Fmt.str "%a" Everest_ir.Pass.pp_report r))
    reports;
  let f1 = List.hd m1.Everest_ir.Ir.funcs in
  let f2 = Everest_ir.Loop_transforms.unroll_by ctx ~factor:4 f1 in
  let m2, reports2 =
    Everest_ir.Pass.run_pipeline ctx Everest_ir.Transforms.standard_pipeline
      (Everest_ir.Ir.modul "k" [ f2 ])
  in
  Printf.printf "  after unroll-by-4 of the reduction loop:\n";
  List.iter
    (fun r -> Printf.printf "  pass %s\n" (Fmt.str "%a" Everest_ir.Pass.pp_report r))
    reports2;
  ignore m2

(* ================================================================== E2 == *)
(* Variant space: who wins where (software layouts/tiling/threads vs FPGA). *)

let e2 () =
  header "E2: SW/HW variant crossover vs problem size (matmul chain)";
  let target = Comp.Variants.default_target in
  let rows =
    List.map
      (fun n ->
        let e = matmul_expr n in
        let vs = Comp.Variants.generate ~target e in
        let best_of pred =
          List.fold_left
            (fun acc v ->
              if pred v then
                match acc with
                | Some (b : Comp.Variants.variant) when b.Comp.Variants.time_s <= v.Comp.Variants.time_s -> acc
                | _ -> Some v
              else acc)
            None vs
        in
        let naive =
          List.find_opt
            (fun v -> v.Comp.Variants.vname = "sw-aos-t1")
            vs
        in
        let best_sw =
          best_of (fun v ->
              match v.Comp.Variants.impl with Comp.Variants.Sw _ -> true | _ -> false)
        in
        let best_hw =
          best_of (fun v ->
              match v.Comp.Variants.impl with Comp.Variants.Hw _ -> true | _ -> false)
        in
        let t v = Option.fold ~none:"-" ~some:(fun (x : Comp.Variants.variant) -> time_str x.Comp.Variants.time_s) v in
        let en v =
          Option.fold ~none:"-"
            ~some:(fun (x : Comp.Variants.variant) ->
              Printf.sprintf "%.2e" x.Comp.Variants.energy_j)
            v
        in
        let energy_winner =
          match (best_sw, best_hw) with
          | Some s, Some h ->
              if h.Comp.Variants.energy_j < s.Comp.Variants.energy_j then "HW" else "SW"
          | _ -> "-"
        in
        let time_winner =
          match (best_sw, best_hw) with
          | Some s, Some h ->
              if h.Comp.Variants.time_s < s.Comp.Variants.time_s then "HW" else "SW"
          | _ -> "-"
        in
        [ string_of_int n; t naive; t best_sw; t best_hw; en best_sw; en best_hw;
          time_winner; energy_winner ])
      [ 16; 32; 64; 128; 256; 512 ]
  in
  table
    ~cols:
      [ "size"; "sw naive"; "sw best"; "hw best"; "E sw (J)"; "E hw (J)";
        "time win"; "energy win" ]
    rows;
  Printf.printf
    "\nExpected shape: SW wins latency on small/medium sizes (multicore peak),\n\
     HW wins energy at scale — the paper's energy-efficiency claim (SVI-D).\n";

  (* the particle layout axis: "layouts of particles as array-of-structures
     or structure-of-arrays" (SIII-B) *)
  Printf.printf "\nparticle layout variants (8-field particles, 100k particles):\n\n";
  let s = Dsl.Particles.create ~n:100_000 Dsl.Particles.standard_attrs in
  let rows =
    List.map
      (fun (label, reads, writes) ->
        let aos =
          Dsl.Particles.map_traffic_bytes
            { s with Dsl.Particles.layout = Dsl.Particles.Aos } ~reads ~writes
        in
        let soa =
          Dsl.Particles.map_traffic_bytes
            { s with Dsl.Particles.layout = Dsl.Particles.Soa } ~reads ~writes
        in
        [ label; si (float_of_int aos); si (float_of_int soa);
          Printf.sprintf "%.1fx" (float_of_int aos /. float_of_int soa);
          (match Dsl.Particles.recommend_layout s ~reads ~writes with
          | Dsl.Particles.Soa -> "SoA"
          | Dsl.Particles.Aos -> "AoS") ])
      [ ("position update (4/8 fields)", [ "x"; "y"; "vx"; "vy" ], [ "x"; "y" ]);
        ("charge scaling (1/8 fields)", [ "charge" ], [ "charge" ]);
        ("full-record kernel (8/8)", Dsl.Particles.standard_attrs,
         Dsl.Particles.standard_attrs) ]
  in
  table ~cols:[ "kernel"; "AoS bytes"; "SoA bytes"; "ratio"; "pick" ] rows;
  Printf.printf
    "\nExpected shape: SoA wins whenever kernels touch a minority of fields —\n\
     the particle-layout variant axis of SIII-B.\n"

(* ================================================================== E3 == *)
(* HLS quality: schedule latency vs resources; banking vs II. *)

let e3 () =
  header "E3: HLS scheduling and memory partitioning";
  let g = Hls.Cdfg.random ~seed:9 ~n:200 ~load_frac:0.25 ~mul_frac:0.35 () in
  let asap = (Hls.Schedule.asap g).Hls.Schedule.makespan in
  let rows =
    List.map
      (fun units ->
        let res =
          { Hls.Schedule.default_resources with
            Hls.Schedule.adders = units; multipliers = units; mem_ports = units }
        in
        let s = Hls.Schedule.list_schedule ~res g in
        let b = Hls.Bind.bind g s in
        [ string_of_int units;
          string_of_int s.Hls.Schedule.makespan;
          Printf.sprintf "%.2fx" (float_of_int s.Hls.Schedule.makespan /. float_of_int asap);
          string_of_int (List.length b.Hls.Bind.fus);
          string_of_int b.Hls.Bind.registers ])
      [ 1; 2; 4; 8; 16 ]
  in
  Printf.printf "200-node random DFG, ASAP latency (unbounded) = %d cycles\n\n" asap;
  table ~cols:[ "units/class"; "cycles"; "vs ASAP"; "FUs"; "regs" ] rows;
  (* banking *)
  Printf.printf "\nmemory banking vs initiation interval (stride-1, unroll 8, 1 port):\n\n";
  let accesses = [ Hls.Cdfg.Affine { coeff = 1; offset = 0 } ] in
  let rows =
    List.concat_map
      (fun banks ->
        List.map
          (fun scheme ->
            let cfg = { Hls.Mem_partition.scheme; banks } in
            let ii =
              Hls.Mem_partition.ii_for cfg ~ports:1 ~array_size:1024 ~unroll:8
                accesses
            in
            [ string_of_int banks; Hls.Mem_partition.scheme_name scheme;
              string_of_int ii ])
          [ Hls.Mem_partition.Cyclic; Hls.Mem_partition.Block;
            Hls.Mem_partition.Block_cyclic 2 ])
      [ 1; 2; 4; 8 ]
  in
  table ~cols:[ "banks"; "scheme"; "II" ] rows;
  Printf.printf
    "\nExpected shape: cyclic banking reaches II=1 at 8 banks for stride-1;\n\
     block banking cannot (adjacent accesses share a bank) — ref [28].\n";

  (* fusion ablation: loop count and memory traffic of an elementwise chain
     before/after producer-consumer fusion, measured by interpretation *)
  Printf.printf "\nloop fusion on an elementwise chain (sigmoid(2*relu(x+y)), 1024 elems):\n\n";
  let x = TE.input "x" [ 1024 ] in
  let y = TE.input "y" [ 1024 ] in
  let e = TE.sigmoid (TE.scale 2.0 (TE.relu (TE.add x y))) in
  let ctx = Everest_ir.Ir.ctx () in
  let f = Comp.Loops.lower_func ctx (Dsl.Lower.lower_expr ctx e) in
  let f' = Comp.Loop_fusion.fuse_func ctx f in
  let profile_of f =
    let m = Everest_ir.Ir.modul "m" [ f ] in
    let arr = Everest_ir.Interp.tensor_of_array [ 1024 ] (Array.init 1024 float_of_int) in
    let _, p = Everest_ir.Interp.run_func ctx m f.Everest_ir.Ir.fname [ arr; arr ] in
    p
  in
  let p0 = profile_of f and p1 = profile_of { f' with Everest_ir.Ir.fname = "fused" } in
  table
    ~cols:[ "version"; "loops"; "loads"; "stores" ]
    [ [ "lowered"; string_of_int (Comp.Loop_fusion.count_loops f);
        string_of_int p0.Everest_ir.Interp.loads;
        string_of_int p0.Everest_ir.Interp.stores ];
      [ "fused"; string_of_int (Comp.Loop_fusion.count_loops f');
        string_of_int p1.Everest_ir.Interp.loads;
        string_of_int p1.Everest_ir.Interp.stores ] ];
  Printf.printf
    "\nExpected shape: fusion collapses the chain to one loop and removes the\n\
     intermediate-buffer traffic (co-optimizing computation and storage).\n"

(* ================================================================== E4 == *)
(* Security: crypto cost, DIFT overhead, monitor quality. *)

let e4 () =
  header "E4: security — crypto acceleration, DIFT overhead, monitors";
  (* crypto throughput: measured software vs modeled accelerator *)
  let key = Sec.Aes.key_of_string "0123456789abcdef" in
  let nonce = Bytes.make 8 'n' in
  let buf = Bytes.make 65536 'x' in
  let t0 = Sys.time () in
  let iters = 20 in
  for _ = 1 to iters do
    ignore (Sec.Aes.ctr_transform key ~nonce buf)
  done;
  let dt = (Sys.time () -. t0) /. float_of_int iters in
  let sw_mbs = float_of_int (Bytes.length buf) /. dt /. 1e6 in
  let hw_time =
    Sec.Cipher.encryption_time_s ~bytes:(Bytes.length buf) ~accelerated:true
      ~clock_hz:2.5e8
  in
  let hw_mbs = float_of_int (Bytes.length buf) /. hw_time /. 1e6 in
  table
    ~cols:[ "crypto path"; "MB/s"; "note" ]
    [ [ "AES-CTR software (measured)"; f1 sw_mbs; "this OCaml implementation" ];
      [ "AES-CTR HLS accelerator (model)"; f1 hw_mbs; "II=1 on 16B blocks @250MHz" ];
      [ "speedup"; f1 (hw_mbs /. sw_mbs); "" ] ];
  (* DIFT overhead on kernels of growing size *)
  Printf.printf "\nTaintHLS-style DIFT overhead (area; latency unchanged):\n\n";
  let rows =
    List.map
      (fun n ->
        let g = Hls.Cdfg.random ~seed:(n * 3) ~n ~load_frac:0.25 ~mul_frac:0.3 () in
        let base = Hls.Hls.synthesize ~name:"k" g in
        let sec =
          Hls.Hls.synthesize
            ~c:{ Hls.Hls.default_constraints with Hls.Hls.dift = true }
            ~name:"k" g
        in
        let bl = base.Hls.Hls.estimate.Hls.Estimate.area.Hls.Estimate.luts in
        let sl = sec.Hls.Hls.estimate.Hls.Estimate.area.Hls.Estimate.luts in
        [ string_of_int n; string_of_int bl; string_of_int sl;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int (sl - bl) /. float_of_int bl);
          string_of_int base.Hls.Hls.estimate.Hls.Estimate.cycles;
          string_of_int sec.Hls.Hls.estimate.Hls.Estimate.cycles ])
      [ 50; 100; 200; 400 ]
  in
  table
    ~cols:[ "DFG nodes"; "LUT base"; "LUT +DIFT"; "overhead"; "cyc base"; "cyc +DIFT" ]
    rows;
  (* monitors: detection and false positives *)
  Printf.printf "\nanomaly monitors (trained on 500 clean samples, then 200 clean + 50 attacks):\n\n";
  let rng = Everest_ml.Rng.create 99 in
  let mon_row name train check inject =
    train ();
    let fp = ref 0 in
    for _ = 1 to 200 do
      if check (Everest_ml.Rng.gaussian ~mu:10.0 ~sigma:1.0 rng) then incr fp
    done;
    let tp = ref 0 in
    for _ = 1 to 50 do
      if check (inject ()) then incr tp
    done;
    [ name;
      Printf.sprintf "%.0f%%" (float_of_int !tp *. 2.0);
      Printf.sprintf "%.1f%%" (float_of_int !fp /. 2.0) ]
  in
  let timing = Sec.Monitor.timing ~threshold_sigma:4.0 () in
  let range = Sec.Monitor.range () in
  let rows =
    [ mon_row "timing (z-score)"
        (fun () ->
          for _ = 1 to 500 do
            Sec.Monitor.timing_train timing
              (Everest_ml.Rng.gaussian ~mu:10.0 ~sigma:1.0 rng)
          done;
          Sec.Monitor.timing_finalize timing)
        (fun x -> Sec.Monitor.timing_check timing x <> Sec.Monitor.Normal)
        (fun () -> 10.0 +. Everest_ml.Rng.uniform rng 8.0 20.0);
      mon_row "range"
        (fun () ->
          for _ = 1 to 500 do
            Sec.Monitor.range_train range
              (Everest_ml.Rng.gaussian ~mu:10.0 ~sigma:1.0 rng)
          done;
          Sec.Monitor.range_finalize range)
        (fun x -> Sec.Monitor.range_check range x <> Sec.Monitor.Normal)
        (fun () -> 10.0 +. Everest_ml.Rng.uniform rng 10.0 30.0) ]
  in
  table ~cols:[ "monitor"; "detection"; "false-pos" ] rows

(* ================================================================== E5 == *)
(* Fig. 2: dynamic adaptation versus static variant selection. *)

let e5 () =
  header "E5 (Fig. 2): mARGOt adaptation under workload/resource shifts";
  let est cycles =
    { Hls.Estimate.area = Hls.Estimate.zero_area; cycles; ii = 1;
      clock_mhz = 250.0; dynamic_power_w = 8.0 }
  in
  let impls =
    [ ("sw-fast", Rt.Orchestrator.Sw { flops = 5e8; bytes = 1e5; threads = 4 });
      ("sw-safe", Rt.Orchestrator.Sw { flops = 1.5e9; bytes = 1e5; threads = 2 });
      ("hw", Rt.Orchestrator.Hw { bitstream = "k"; estimate = est 100_000;
                                  in_bytes = 4096; out_bytes = 4096 }) ]
  in
  let knowledge () =
    At.Knowledge.create "k"
      [ { At.Knowledge.variant = "sw-fast"; features = []; metrics = [ ("time_s", 0.005) ] };
        { At.Knowledge.variant = "sw-safe"; features = []; metrics = [ ("time_s", 0.02) ] };
        { At.Knowledge.variant = "hw"; features = []; metrics = [ ("time_s", 0.0006) ] } ]
  in
  (* phase schedule: FPGA contended in [25, 75); CPU contended in [100, 140) *)
  let slowdown req variant =
    if req >= 25 && req < 75 && String.equal variant "hw" then 80.0
    else if req >= 100 && req < 140 && String.length variant >= 2
            && String.sub variant 0 2 = "sw" then 6.0
    else 1.0
  in
  let n = 160 in
  let run policy =
    let cluster = Plat.Cluster.create [ Plat.Cluster.power9_node "p9" ] in
    let orch = Rt.Orchestrator.create cluster ~host_name:"p9" in
    let dk =
      Rt.Orchestrator.deploy orch ~kname:"k" ~impls ~knowledge:(knowledge ())
        ~goal:(At.Goal.make (At.Goal.Minimize "time_s"))
    in
    let log = Rt.Orchestrator.serve orch ~kernel:"k" ~n ~policy ~slowdown () in
    (Rt.Orchestrator.total_latency log, dk.Rt.Orchestrator.tuner.At.Tuner.switches,
     Rt.Orchestrator.variant_histogram log)
  in
  let rows =
    List.map
      (fun (name, policy) ->
        let total, switches, hist = run policy in
        [ name; time_str total;
          string_of_int switches;
          String.concat " "
            (List.map (fun (v, c) -> Printf.sprintf "%s:%d" v c) hist) ])
      [ ("adaptive (mARGOt)", Rt.Orchestrator.Adaptive);
        ("fixed hw", Rt.Orchestrator.Fixed "hw");
        ("fixed sw-fast", Rt.Orchestrator.Fixed "sw-fast");
        ("random", Rt.Orchestrator.Random 3) ]
  in
  table ~cols:[ "policy"; "total latency"; "switches"; "variant histogram" ] rows;
  Printf.printf
    "\nExpected shape: adaptive tracks the best variant through both contention\n\
     phases and beats every static policy (SIV: dynamic adaptation).\n";

  (* ablation: data-feature-aware vs feature-blind selection.  Requests
     alternate between small and large inputs; the best variant differs per
     size class (offload only amortizes on large inputs). *)
  Printf.printf "\nablation: data-feature-aware selection (requests alternate small/large):\n\n";
  let sizes req = if req mod 2 = 0 then 1e3 else 1e6 in
  let size_slowdown req variant =
    let small = sizes req < 1e4 in
    match (variant, small) with
    | "sw", true -> 0.1  (* small inputs: software is nearly free *)
    | "sw", false -> 10.0  (* large inputs: software 10x slower *)
    | _, true -> 1.0  (* offload overhead dominates small inputs *)
    | _, false -> 1.0
  in
  let feature_knowledge () =
    At.Knowledge.create "k"
      [ { At.Knowledge.variant = "sw"; features = [ ("size", 1e3) ];
          metrics = [ ("time_s", 0.0005) ] };
        { At.Knowledge.variant = "hw"; features = [ ("size", 1e3) ];
          metrics = [ ("time_s", 0.0007) ] };
        { At.Knowledge.variant = "sw"; features = [ ("size", 1e6) ];
          metrics = [ ("time_s", 0.05) ] };
        { At.Knowledge.variant = "hw"; features = [ ("size", 1e6) ];
          metrics = [ ("time_s", 0.0007) ] } ]
  in
  let ab_impls =
    [ ("sw", Rt.Orchestrator.Sw { flops = 5e8; bytes = 1e5; threads = 4 });
      ("hw", Rt.Orchestrator.Hw { bitstream = "k"; estimate = est 100_000;
                                  in_bytes = 65536; out_bytes = 4096 }) ]
  in
  let run_features label features =
    let cluster = Plat.Cluster.create [ Plat.Cluster.power9_node "p9" ] in
    let orch = Rt.Orchestrator.create cluster ~host_name:"p9" in
    let _ =
      Rt.Orchestrator.deploy orch ~kname:"k" ~impls:ab_impls
        ~knowledge:(feature_knowledge ())
        ~goal:(At.Goal.make (At.Goal.Minimize "time_s"))
    in
    let log =
      Rt.Orchestrator.serve orch ~kernel:"k" ~n:80 ~policy:Rt.Orchestrator.Adaptive
        ~slowdown:size_slowdown ~features ()
    in
    [ label; time_str (Rt.Orchestrator.total_latency log);
      String.concat " "
        (List.map (fun (v, c) -> Printf.sprintf "%s:%d" v c)
           (Rt.Orchestrator.variant_histogram log)) ]
  in
  table
    ~cols:[ "selection"; "total latency"; "variant histogram" ]
    [ run_features "feature-aware" (fun req -> [ ("size", sizes req) ]);
      run_features "feature-blind" (fun _ -> []) ];
  Printf.printf
    "\nExpected shape: knowing the input size lets the tuner switch per\n\
     request (sw for small, hw for large); the blind tuner settles on one\n\
     variant and pays for it on the other size class.\n"

(* ================================================================== E6 == *)
(* Fig. 3/4: scale-up (bus FPGA) vs scale-out (network FPGAs) vs CPU. *)

let e6 () =
  header "E6 (Fig. 3/4): attachment and scale-out on the EVEREST demonstrator";
  (* coherent vs network attachment across message sizes *)
  Printf.printf "attachment latency for one kernel call (in+out transfer only):\n\n";
  let rows =
    List.map
      (fun kb ->
        let bytes = kb * 1024 in
        let oc = 2.0 *. Plat.Spec.transfer_time Plat.Spec.opencapi ~bytes in
        let tcp = 2.0 *. Plat.Spec.transfer_time Plat.Spec.eth100_tcp ~bytes in
        [ string_of_int kb; time_str oc; time_str tcp; f1 (tcp /. oc) ])
      [ 1; 16; 256; 4096; 65536 ]
  in
  table ~cols:[ "payload KB"; "OpenCAPI"; "100GbE TCP"; "ratio" ] rows;
  (* scale-out: ensemble of independent FPGA kernels *)
  Printf.printf "\nensemble of 32 accelerated tasks: makespan vs platform:\n\n";
  let est =
    { Hls.Estimate.area = Hls.Estimate.zero_area; cycles = 2_500_000; ii = 1;
      clock_mhz = 250.0; dynamic_power_w = 12.0 }
  in
  (* [fpga:false] leaves the members their CPU implementation only *)
  let mk_dag ~fpga =
    Wf.Dag.create "ensemble"
      (Wf.Dag.task ~id:0 ~name:"scatter" ~inputs:[] ~out_bytes:(32 * 1_000_000)
         ~impls:[ Wf.Dag.Cpu { flops = 1e7; bytes = 3.2e7; threads = 1 } ]
         ()
      :: List.init 32 (fun i ->
             Wf.Dag.task ~id:(i + 1)
               ~name:(Printf.sprintf "member%d" i)
               ~inputs:[ 0 ] ~out_bytes:100_000
               ~impls:
                 (Wf.Dag.Cpu { flops = 5e9; bytes = 1e6; threads = 1 }
                 :: (if fpga then
                       [ Wf.Dag.Fpga { bitstream = "member"; estimate = est;
                                       in_bytes = 1_000_000;
                                       out_bytes = 100_000 } ]
                     else []))
               ()))
  in
  let rows =
    List.map
      (fun (name, cloud_fpgas, strip_fpga) ->
        let dag = mk_dag ~fpga:(not strip_fpga) in
        let _, stats =
          Wf.Executor.run_on_demonstrator ~cloud_fpgas ~edges:0 ~endpoints:0
            ~policy:"heft-locality" dag
        in
        [ name; time_str stats.Wf.Executor.makespan;
          Printf.sprintf "%.1f" stats.Wf.Executor.energy_j ])
      [ ("CPU only (POWER9)", 0, true);
        ("P9 + 2 bus FPGAs", 0, false);
        ("P9 + 2 bus + 2 cloudFPGA", 2, false);
        ("P9 + 2 bus + 4 cloudFPGA", 4, false);
        ("P9 + 2 bus + 8 cloudFPGA", 8, false) ]
  in
  table ~cols:[ "platform"; "makespan"; "energy J" ] rows;
  Printf.printf
    "\nExpected shape: bus FPGAs accelerate; adding disaggregated network\n\
     FPGAs scales out further (cloudFPGA claim, SV).\n"

(* ================================================================== E7 == *)
(* Use case A: ensemble resolution vs forecast quality vs compute. *)

let e7 () =
  header "E7 (SVI-A): wind-power forecast quality vs ensemble resolution";
  let p = { Everest_energy.Weather.default_params with
            Everest_energy.Weather.days = 30; seed = 12 } in
  let rows =
    List.map
      (fun (r, mae, imb, flops) ->
        (* 10-member ensemble: stencil codes reach ~8% of CPU peak; the two
           bus FPGAs stream the stencil at ~64 Gflops each *)
        let member = flops in
        let cpu_t =
          10.0 *. member /. (Plat.Spec.cpu_peak_flops Plat.Spec.power9 *. 0.08)
        in
        let fpga_t = 10.0 *. member /. (2.0 *. 64e9) in
        [ f1 r; f1 mae; f1 imb; si flops;
          time_str cpu_t; time_str fpga_t ])
      (Everest_energy.Forecast.resolution_sweep
         ~resolutions:[ 25.0; 12.5; 5.0; 2.5 ] p)
  in
  table
    ~cols:
      [ "res km"; "MAE kW"; "imbalance EUR"; "flop/member"; "t(CPU)"; "t(2 FPGA)" ]
    rows;
  (* the ensemble dimension: more members stabilize the forecast *)
  Printf.printf "\nensemble size at 5 km (members vs skill):\n\n";
  let rows =
    List.map
      (fun members ->
        let cfg = { Everest_energy.Forecast.default_config with
                    Everest_energy.Forecast.resolution_km = 5.0;
                    n_members = members } in
        let e, _, _ = Everest_energy.Forecast.evaluate ~cfg p in
        [ string_of_int members; f1 e.Everest_energy.Forecast.mae_kw;
          f1 e.Everest_energy.Forecast.imbalance_eur ])
      [ 2; 5; 10; 20 ]
  in
  table ~cols:[ "members"; "MAE kW"; "imbalance EUR" ] rows;
  let cfg = { Everest_energy.Forecast.default_config with
              Everest_energy.Forecast.resolution_km = 5.0 } in
  let model, pers, climo = Everest_energy.Forecast.evaluate ~cfg p in
  Printf.printf "\nday-ahead skill at 5 km vs baselines:\n\n";
  table
    ~cols:[ "forecaster"; "MAE kW"; "RMSE kW"; "imbalance EUR"; "ramp recall" ]
    (List.map
       (fun (n, (e : Everest_energy.Forecast.eval)) ->
         [ n; f1 e.Everest_energy.Forecast.mae_kw;
           f1 e.Everest_energy.Forecast.rmse_kw;
           f1 e.Everest_energy.Forecast.imbalance_eur;
           f2 e.Everest_energy.Forecast.ramp_recall ])
       [ ("mlp-model", model); ("persistence", pers); ("climatology", climo) ]);
  Printf.printf
    "\nExpected shape: finer ensembles cut MAE and imbalance cost with steeply\n\
     growing compute — the acceleration motivation of SVI-A.\n"

(* ================================================================== E8 == *)
(* Use case B: abatement decision quality vs grid resolution and time. *)

let e8 () =
  header "E8 (SVI-B): air-quality decisions vs plume grid resolution";
  let rows =
    List.map
      (fun (cells, res) ->
        let e = Everest_airq.Airq_forecast.evaluate ~hours:72 ~cells ~resolution_km:res () in
        (* hourly budget = 20 ensemble members x 24 lead hours; exp-heavy
           plume math reaches ~10% of the ARM peak, while the edge FPGA
           pipeline streams it at ~38 Gflops *)
        let fl = e.Everest_airq.Airq_forecast.flops_per_hour *. 20.0 *. 24.0 in
        let cpu_t = fl /. (Plat.Spec.cpu_peak_flops Plat.Spec.arm_edge *. 0.10) in
        let fpga_t = fl /. 38.4e9 in
        [ Printf.sprintf "%dx%d" cells cells; f1 res;
          f2 e.Everest_airq.Airq_forecast.precision;
          f2 e.Everest_airq.Airq_forecast.recall;
          f2 e.Everest_airq.Airq_forecast.f1;
          time_str cpu_t; time_str fpga_t ])
      [ (16, 25.0); (32, 12.5); (48, 5.0); (64, 2.5) ]
  in
  table
    ~cols:[ "grid"; "wx res km"; "precision"; "recall"; "F1"; "t/h edge CPU"; "t/h edge FPGA" ]
    rows;
  Printf.printf
    "\nExpected shape: decision quality rises with resolution; edge FPGA keeps\n\
     the fine grid within the hourly real-time budget (SVI-B).\n"

(* ================================================================== E9 == *)
(* Use case C: PTDR convergence and traffic pipeline throughput. *)

let e9 () =
  header "E9 (SVI-C): probabilistic time-dependent routing";
  let city = Everest_traffic.Roadnet.grid_city ~rows:8 ~cols:8 () in
  let od =
    Everest_traffic.Od.gravity ~n_zones:64 ~total_trips_per_hour:60_000.0
      ~cols:8 ()
  in
  let st = Everest_traffic.Simulator.run city od ~periods:24 in
  let pings = Everest_traffic.Fcd.generate st ~n_vehicles:1500 in
  let prof = Everest_traffic.Profiles.learn city ~periods:24 pings in
  Printf.printf "pipeline: %d FCD pings -> %.0f%% profile coverage, RMSE %.2f m/s\n\n"
    (Everest_traffic.Fcd.count pings)
    (100.0 *. Everest_traffic.Profiles.coverage prof)
    (Everest_traffic.Profiles.prediction_rmse prof st);
  let route =
    Option.get (Everest_traffic.Routing.free_flow city ~src:0 ~dst:63)
  in
  let depart = 8.0 *. 3600.0 in
  let rows =
    List.map
      (fun (n, mean, ci) ->
        (* measured throughput of the MC kernel *)
        let t0 = Sys.time () in
        ignore
          (Everest_traffic.Ptdr.monte_carlo city prof route ~depart ~n_samples:n);
        let dt = Sys.time () -. t0 in
        let sps = float_of_int n /. Float.max 1e-9 dt in
        [ string_of_int n; f2 (mean /. 60.0); Printf.sprintf "%.3f" (ci /. 60.0);
          si sps ])
      (Everest_traffic.Ptdr.convergence city prof route ~depart
         ~sample_counts:[ 10; 100; 1000; 10000 ])
  in
  table ~cols:[ "samples"; "mean min"; "95% CI min"; "samples/s (measured)" ] rows;
  Printf.printf
    "\nExpected shape: CI shrinks as 1/sqrt(n); thousands of samples per query\n\
     motivate the server-side acceleration of PTDR (refs [37][41]).\n";

  (* the traffic prediction model: next-period speed forecasting *)
  Printf.printf "\nnext-period speed prediction (train day 1, test day 2):\n\n";
  let st2 = Everest_traffic.Simulator.run city od ~periods:48 in
  let m = Everest_traffic.Predictor.train ~epochs:40 st2 ~train_periods:24 in
  let e = Everest_traffic.Predictor.evaluate m st2 ~from_period:24 ~to_period:47 in
  table
    ~cols:[ "predictor"; "RMSE m/s" ]
    [ [ "mlp-model"; f2 e.Everest_traffic.Predictor.model_rmse ];
      [ "persistence"; f2 e.Everest_traffic.Predictor.persistence_rmse ];
      [ "free-flow"; f2 e.Everest_traffic.Predictor.freeflow_rmse ] ];
  Printf.printf
    "\nExpected shape: the learned model beats the free-flow assumption and\n\
     at least matches persistence across the congestion transitions.\n"

(* ================================================================= E10 == *)
(* HyperLoom claim: locality-aware scheduling of use-case-shaped DAGs. *)

let e10 () =
  header "E10 (SIII-A): workflow scheduling policies on use-case DAGs";
  let dags =
    [ ("fork-join ensemble",
       Wf.Dag.fork_join ~width:16 ~worker_flops:2e9 ~worker_bytes:1e6
         ~chunk_bytes:2_000_000 ());
      ("layered heavy-data",
       Wf.Dag.layered ~seed:5 ~layers:6 ~width:5 ~flops:5e8 ~bytes:2e8 ());
      ("layered compute-heavy",
       Wf.Dag.layered ~seed:6 ~layers:6 ~width:5 ~flops:2e10 ~bytes:1e5 ()) ]
  in
  let policies = [ "round-robin"; "min-load"; "heft"; "heft-locality" ] in
  let rows =
    List.concat_map
      (fun (name, dag) ->
        List.map
          (fun policy ->
            let _, stats = Wf.Executor.run_on_demonstrator ~policy dag in
            [ name; policy; time_str stats.Wf.Executor.makespan;
              si (float_of_int stats.Wf.Executor.bytes_moved);
              f1 stats.Wf.Executor.energy_j ])
          policies)
      dags
  in
  table ~cols:[ "workflow"; "policy"; "makespan"; "bytes moved"; "energy J" ] rows;
  Printf.printf
    "\nExpected shape: locality-aware HEFT minimizes data movement and makespan\n\
     on data-heavy workflows (the HyperLoom claim).\n";

  (* distributed allocation: replication decisions per shared data object *)
  Printf.printf "\ndistributed data allocation on the heavy-data workflow:\n\n";
  let dag = Wf.Dag.layered ~seed:5 ~layers:6 ~width:5 ~flops:5e8 ~bytes:2e8 () in
  let rows =
    List.map
      (fun policy ->
        let c = Plat.Cluster.everest_demonstrator () in
        let plan = (Option.get (Wf.Scheduler.by_name policy)) c dag in
        let allocs = Wf.Placement.optimize c plan in
        let count d =
          List.length
            (List.filter
               (fun (a : Wf.Placement.allocation) -> a.Wf.Placement.decision = d)
               allocs)
        in
        let hubs =
          List.length
            (List.filter
               (fun (a : Wf.Placement.allocation) ->
                 match a.Wf.Placement.decision with
                 | Wf.Placement.Hub _ -> true
                 | _ -> false)
               allocs)
        in
        [ policy; string_of_int (List.length allocs);
          string_of_int (count Wf.Placement.Keep_at_producer);
          string_of_int hubs;
          string_of_int (count Wf.Placement.Replicate_to_consumers);
          Printf.sprintf "%.0f%%" (100.0 *. Wf.Placement.saving allocs) ])
      [ "round-robin"; "heft-locality" ]
  in
  table ~cols:[ "plan"; "objects"; "keep"; "hub"; "replicate"; "saving" ] rows;
  Printf.printf
    "\nExpected shape: the two mechanisms are complementary — either move the\n\
     computation to the data (heft-locality leaves nothing to replicate) or\n\
     move the data smartly (replication recovers much of a naive plan's\n\
     transfer cost) — SII/SIV: distributed allocation.\n"

(* ================================================================= E11 == *)
(* everest_telemetry claim: always-on instrumentation is cheap enough to
   leave enabled.  Same executor run with and without a sim-clock tracer
   plus a private metrics registry; the delta is the telemetry cost. *)

let e11 () =
  header "E11 (telemetry): span/metric overhead on the workflow executor";
  let module Tel = Everest_telemetry in
  let dag = Wf.Dag.layered ~seed:5 ~layers:6 ~width:5 ~flops:5e8 ~bytes:1e6 () in
  let plain () =
    ignore (Wf.Executor.run_on_demonstrator ~policy:"heft-locality" dag)
  in
  (* one long-lived registry per configuration, as a deployment would have *)
  let registry = Tel.Metrics.create_registry () in
  let traced () =
    ignore
      (Wf.Executor.run_on_demonstrator ~policy:"heft-locality" ~tracer:`Sim
         ~registry dag)
  in
  (* Interleaved batches, minimum batch time per configuration: the minimum
     is the run least disturbed by the OS, so the difference isolates the
     telemetry cost from scheduler noise. *)
  let reps = 50 and batches = 20 in
  let batch f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do f () done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  for _ = 1 to 20 do plain (); traced () done;
  let best_plain = ref infinity and best_traced = ref infinity in
  for _ = 1 to batches do
    best_plain := Float.min !best_plain (batch plain);
    best_traced := Float.min !best_traced (batch traced)
  done;
  let t_plain = !best_plain and t_traced = !best_traced in
  let overhead = 100.0 *. (t_traced -. t_plain) /. t_plain in
  let spans =
    let _, stats =
      Wf.Executor.run_on_demonstrator ~policy:"heft-locality" ~tracer:`Sim
        ~registry dag
    in
    List.length stats.Wf.Executor.span_log
  in
  table
    ~cols:[ "configuration"; "per-run"; "spans"; "overhead" ]
    [ [ "executor, telemetry off"; time_str t_plain; "0"; "-" ];
      [ "executor, spans+metrics"; time_str t_traced; string_of_int spans;
        Printf.sprintf "%+.1f%%" overhead ] ];
  Printf.printf
    "\nExpected shape: the noop-tracer fast path keeps the uninstrumented run\n\
     at baseline, and full span+metric recording stays under ~5%% overhead,\n\
     cheap enough to leave on in production runs.\n"

(* ================================================================= E12 == *)
(* everest_parallel claim: the DSE middle-end scales across domains and the
   shared estimation cache makes repeated explorations nearly free.  Cold
   wall-time per pool size (fresh pool + cache per run, best of 2), warm
   re-run speedup on a shared cache, and cross-strategy reuse; results also
   land in BENCH_e12.json for machines. *)

let e12 () =
  header "E12 (parallel DSE): domain-pool scaling and estimation-cache reuse";
  let module Par = Everest_parallel in
  let expr = matmul_expr 256 in
  let cores = Domain.recommended_domain_count () in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let pareto_equal (a : Comp.Dse.result) (b : Comp.Dse.result) =
    List.length a.Comp.Dse.variants = List.length b.Comp.Dse.variants
    && List.for_all2
         (fun (x : Comp.Variants.variant) (y : Comp.Variants.variant) ->
           String.equal x.Comp.Variants.vname y.Comp.Variants.vname
           && x.Comp.Variants.time_s = y.Comp.Variants.time_s
           && x.Comp.Variants.energy_j = y.Comp.Variants.energy_j
           && x.Comp.Variants.area_luts = y.Comp.Variants.area_luts)
         a.Comp.Dse.variants b.Comp.Dse.variants
  in
  (* cold scaling: fresh pool and cache per run so nothing leaks between
     configurations; best of 2 runs absorbs warmup noise *)
  let cold domains =
    let best = ref infinity and result = ref None in
    for _ = 1 to 2 do
      let cache = Comp.Estimate_cache.create () in
      Par.Pool.with_pool ~domains (fun pool ->
          let r, dt = wall (fun () -> Comp.Dse.exhaustive ~pool ~cache expr) in
          if dt < !best then begin best := dt; result := Some r end)
    done;
    (Option.get !result, !best)
  in
  let base_r, base_t = cold 1 in
  let scaling =
    List.map
      (fun domains ->
        let r, t = cold domains in
        (domains, t, base_t /. t, pareto_equal r base_r))
      [ 1; 2; 4; 8 ]
  in
  Printf.printf "host cores: %d (flat scaling expected on a 1-core host)\n\n"
    cores;
  table
    ~cols:[ "domains"; "cold DSE"; "speedup"; "pareto = 1-domain" ]
    (List.map
       (fun (d, t, s, same) ->
         [ string_of_int d; time_str t; Printf.sprintf "%.2fx" s;
           (if same then "yes" else "NO") ])
       scaling);
  (* cache warmth: same expression re-explored against a shared cache *)
  let cache = Comp.Estimate_cache.create () in
  let pool = Par.Pool.create ~domains:1 () in
  let cold_r, cold_t = wall (fun () -> Comp.Dse.exhaustive ~pool ~cache expr) in
  let warm_r, warm_t = wall (fun () -> Comp.Dse.exhaustive ~pool ~cache expr) in
  if not (pareto_equal cold_r warm_r) then
    failwith "E12: warm Pareto set differs from cold";
  let warm_speedup = cold_t /. warm_t in
  (* cross-strategy reuse: sampled and greedy on the already-warm cache *)
  let strategy_reuse =
    List.map
      (fun (name, run) ->
        let before = Par.Cache.stats cache in
        let (_ : Comp.Dse.result), t = wall run in
        let after = Par.Cache.stats cache in
        let hits = after.Par.Cache.hits - before.Par.Cache.hits in
        let misses = after.Par.Cache.misses - before.Par.Cache.misses in
        let rate =
          if hits + misses = 0 then 0.0
          else float_of_int hits /. float_of_int (hits + misses)
        in
        (name, t, hits, misses, rate))
      [ ("sampled-12", fun () -> Comp.Dse.sampled ~pool ~cache ~budget:12 expr);
        ("greedy", fun () -> Comp.Dse.greedy ~pool ~cache expr) ]
  in
  Par.Pool.shutdown pool;
  Printf.printf "\nestimation-cache reuse (matmul 256x256, shared cache):\n\n";
  table
    ~cols:[ "exploration"; "wall"; "hits"; "misses"; "hit rate" ]
    ([ [ "exhaustive cold"; time_str cold_t; "0";
         string_of_int (Par.Cache.stats cache).Par.Cache.entries; "0%" ];
       [ "exhaustive warm"; time_str warm_t; "-"; "-";
         Printf.sprintf "%.1fx faster" warm_speedup ] ]
    @ List.map
        (fun (name, t, hits, misses, rate) ->
          [ name ^ " (warm)"; time_str t; string_of_int hits;
            string_of_int misses; Printf.sprintf "%.0f%%" (100.0 *. rate) ])
        strategy_reuse);
  (* machine-readable record for CI and EXPERIMENTS.md *)
  let json =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Printf.sprintf "  \"host_cores\": %d,\n" cores);
    Buffer.add_string buf "  \"workload\": \"matmul-256x256-exhaustive\",\n";
    Buffer.add_string buf "  \"cold_scaling\": [\n";
    List.iteri
      (fun i (d, t, s, same) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"domains\": %d, \"wall_s\": %.6f, \"speedup\": %.3f, \
              \"pareto_identical\": %b}%s\n"
             d t s same
             (if i = List.length scaling - 1 then "" else ",")))
      scaling;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"cache\": {\"cold_s\": %.6f, \"warm_s\": %.6f, \
          \"warm_speedup\": %.2f},\n"
         cold_t warm_t warm_speedup);
    Buffer.add_string buf "  \"strategy_reuse\": [\n";
    List.iteri
      (fun i (name, t, hits, misses, rate) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"strategy\": %S, \"wall_s\": %.6f, \"hits\": %d, \
              \"misses\": %d, \"hit_rate\": %.3f}%s\n"
             name t hits misses rate
             (if i = List.length strategy_reuse - 1 then "" else ",")))
      strategy_reuse;
    Buffer.add_string buf "  ]\n}\n";
    Buffer.contents buf
  in
  let oc = open_out "BENCH_e12.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "\nwrote BENCH_e12.json\n\
     Expected shape: near-linear cold speedup up to the core count (flat on\n\
     a 1-core host), identical Pareto sets at every pool size, and a warm\n\
     cache collapsing re-exploration to hash lookups (>=5x).\n"

(* ================================================================= E13 == *)
(* everest_analysis claim: the monotone-framework analyses sweep the IR at
   high op throughput, and the pipeline's pre-flight lint gate stays well
   inside a 5% compile-time budget.  Results also land in BENCH_e13.json. *)

let e13 () =
  header "E13 (static analysis): analysis throughput and lint pre-flight overhead";
  let module An = Everest_analysis in
  let module EIr = Everest_ir in
  let ctx = EIr.Ir.ctx () in
  let r = EIr.Ir.result in
  (* a large synthetic kernel mixing straight-line arithmetic, buffer
     traffic and loops — the op mix the analyses see in lowered modules *)
  let synth blocks =
    let ops = ref [] in
    let emit o = ops := o :: !ops; r o in
    let acc0 = emit (EIr.Dialect_arith.const_f ctx 0.0) in
    let acc = ref acc0 in
    for i = 1 to blocks do
      let c1 = emit (EIr.Dialect_arith.const_f ctx (float_of_int i)) in
      let s = emit (EIr.Dialect_arith.addf ctx !acc c1) in
      let p = emit (EIr.Dialect_arith.mulf ctx s s) in
      let buf = emit (EIr.Dialect_memref.alloc ctx EIr.Types.F64 [ 8 ]) in
      let idx = emit (EIr.Dialect_arith.const_index ctx (i mod 8)) in
      ops := EIr.Dialect_memref.store ctx p buf [ idx ] :: !ops;
      let ld = emit (EIr.Dialect_memref.load ctx buf [ idx ]) in
      ops := EIr.Dialect_memref.dealloc ctx buf :: !ops;
      let lo = emit (EIr.Dialect_arith.const_index ctx 0) in
      let hi = emit (EIr.Dialect_arith.const_index ctx 4) in
      let st = emit (EIr.Dialect_arith.const_index ctx 1) in
      let loop =
        EIr.Dialect_scf.for_ ~iter_args:[ ld ] ctx lo hi st
          (fun ctx _iv iters ->
            let a = List.hd iters in
            let d = EIr.Dialect_arith.addf ctx a a in
            ([ d ], [ EIr.Ir.result d ]))
      in
      ops := loop :: !ops;
      acc := r loop
    done;
    ops := EIr.Dialect_func.return ctx [ !acc ] :: !ops;
    EIr.Ir.func "synth" [] [ EIr.Types.f64 ] (List.rev !ops)
  in
  let f = synth 400 in
  let m = EIr.Ir.modul "synth" [ f ] in
  let nops = EIr.Ir.module_op_count m in
  let wall g =
    let t0 = Unix.gettimeofday () in
    g ();
    Unix.gettimeofday () -. t0
  in
  (* run each analysis repeatedly until >=50ms of wall time accumulates *)
  let throughput run =
    run ();  (* warmup *)
    let iters = ref 0 and spent = ref 0.0 in
    while !spent < 0.05 do
      spent := !spent +. wall run;
      incr iters
    done;
    let per_run = !spent /. float_of_int !iters in
    (per_run, float_of_int nops /. per_run)
  in
  let analyses =
    [ ("liveness", fun () -> ignore (An.Liveness.live_in f));
      ("dead-ops", fun () -> ignore (EIr.Transforms.dead_ops f));
      ("reaching", fun () -> ignore (An.Reaching.undominated_uses f));
      ("constprop", fun () -> ignore (An.Constprop.analyze f));
      ("memlife", fun () -> ignore (An.Memlife.analyze f));
      ("lint (all rules)", fun () -> ignore (An.Lint.run m)) ]
  in
  let rows = List.map (fun (name, run) -> (name, throughput run)) analyses in
  Printf.printf "synthetic module: %d ops\n\n" nops;
  table
    ~cols:[ "analysis"; "per run"; "ops/sec" ]
    (List.map
       (fun (name, (per_run, ops_s)) ->
         [ name; time_str per_run; Printf.sprintf "%.2fM" (ops_s /. 1e6) ])
       rows);
  (* pre-flight overhead with two denominators: a cold-cache compile
     (every kernel variant estimated — the realistic first-compile cost
     the 5% budget is stated against) and a warm-cache recompile (DSE
     collapses to hash lookups, the hardest possible denominator — its
     delta is the absolute pre-flight cost itself) *)
  let g = Dsl.Dataflow.create "e13app" in
  let src = Dsl.Dataflow.source g "in" ~bytes:65536 in
  let t1 =
    Dsl.Dataflow.task g "k1" (Dsl.Dataflow.Tensor_kernel (matmul_expr 64))
      ~deps:[ src ]
  in
  let t2 =
    Dsl.Dataflow.task g "k2"
      (Dsl.Dataflow.Tensor_kernel (TE.relu (TE.input "x" [ 64; 64 ])))
      ~deps:[ t1 ]
  in
  Dsl.Dataflow.sink g "out" t2;
  let best run =
    let b = ref infinity in
    for _ = 1 to 5 do
      b := Float.min !b (wall run)
    done;
    !b
  in
  let cold lint () =
    ignore
      (Comp.Pipeline.compile ~cache:(Comp.Estimate_cache.create ()) ~lint g)
  in
  let cache = Comp.Estimate_cache.create () in
  ignore (Comp.Pipeline.compile ~cache g);
  let warm lint () = ignore (Comp.Pipeline.compile ~cache ~lint g) in
  let t_cold_off = best (cold false) in
  let t_cold_on = best (cold true) in
  let t_warm_off = best (warm false) in
  let t_warm_on = best (warm true) in
  let pct off on = 100.0 *. (on -. off) /. off in
  let overhead = pct t_cold_off t_cold_on in
  Printf.printf "\n";
  table
    ~cols:[ "configuration"; "cold compile"; "warm recompile" ]
    [ [ "lint off"; time_str t_cold_off; time_str t_warm_off ];
      [ "lint on (pre-flight)"; time_str t_cold_on; time_str t_warm_on ];
      [ "overhead";
        Printf.sprintf "%+.2f%%" overhead;
        Printf.sprintf "%+.1f%% (%s abs)"
          (pct t_warm_off t_warm_on)
          (time_str (t_warm_on -. t_warm_off)) ] ];
  let json =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"synthetic_ops\": %d,\n" nops);
    Buffer.add_string buf "  \"analysis_throughput\": [\n";
    List.iteri
      (fun i (name, (per_run, ops_s)) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"analysis\": %S, \"per_run_s\": %.6f, \"ops_per_sec\": \
              %.0f}%s\n"
             name per_run ops_s
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"compile_overhead\": {\"cold_lint_off_s\": %.6f, \
          \"cold_lint_on_s\": %.6f, \"overhead_pct\": %.2f, \
          \"warm_lint_off_s\": %.6f, \"warm_lint_on_s\": %.6f, \
          \"budget_pct\": 5.0}\n"
         t_cold_off t_cold_on overhead t_warm_off t_warm_on);
    Buffer.add_string buf "}\n";
    Buffer.contents buf
  in
  let oc = open_out "BENCH_e13.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "\nwrote BENCH_e13.json\n\
     Expected shape: every analysis sweeps the module in the millions of\n\
     ops per second, and the pre-flight lint gate stays under the 5%%\n\
     budget on a cold-cache compile (on a fully warm-cache recompile the\n\
     gate's fixed tens-of-microsecond cost is the whole delta).\n"

(* ================================================================= E14 == *)
(* everest_resilience claim: under seeded chaos, the recovery policy keeps
   the demonstrator workflow completing across fault rates, at a bounded
   makespan/energy overhead, and every run is bit-reproducible in its seed.
   Results also land in BENCH_e14.json. *)

let e14 () =
  header "E14 (resilience): makespan, availability and energy vs node fault rate";
  let module Res = Everest_resilience in
  let dag = Wf.Dag.layered ~seed:11 ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 () in
  let n_tasks = Wf.Dag.size dag in
  let nodes =
    List.map
      (fun (n : Plat.Node.t) -> n.Plat.Node.name)
      (Plat.Cluster.everest_demonstrator ()).Plat.Cluster.nodes
  in
  let _, clean = Wf.Executor.run_on_demonstrator ~policy:"heft-locality" dag in
  let clean_ms = clean.Wf.Executor.makespan in
  let clean_j = clean.Wf.Executor.energy_j in
  let seeds = List.init 10 (fun i -> 100 + i) in
  let slos = [ 1.5; 2.0; 4.0 ] in
  let run_rate rate =
    let runs =
      List.map
        (fun seed ->
          (* the fault rate is the single chaos dial: transient
             probabilities scale with it so rate 0 is a true control *)
          let faults =
            Res.Faults.random_plan ~seed ~fault_rate:rate
              ~mean_downtime:(0.25 *. clean_ms)
              ~transient_prob:(0.25 *. rate)
              ~fpga_transient_prob:(0.1 *. rate) ~nodes ~horizon:clean_ms ()
          in
          match
            Wf.Executor.run_on_demonstrator ~policy:"heft-locality" ~faults
              ~exec_policy:Res.Policy.chaos dag
          with
          | _, s -> Ok s
          | exception Wf.Executor.Execution_failed { partial; _ } ->
              Error partial)
        seeds
    in
    let n_runs = float_of_int (List.length runs) in
    let done_tasks s =
      Array.fold_left
        (fun acc f -> if f >= 0.0 then acc + 1 else acc)
        0 s.Wf.Executor.task_finish
    in
    let completed =
      List.length (List.filter (function Ok _ -> true | Error _ -> false) runs)
    in
    let stats_of = function Ok s -> s | Error p -> p in
    let mean f =
      List.fold_left (fun acc r -> acc +. f (stats_of r)) 0.0 runs /. n_runs
    in
    let availability =
      mean (fun s -> float_of_int (done_tasks s) /. float_of_int n_tasks)
    in
    let mean_ms = mean (fun s -> s.Wf.Executor.makespan) in
    let mean_j = mean (fun s -> s.Wf.Executor.energy_j) in
    let sum f =
      List.fold_left (fun acc r -> acc + f (stats_of r)) 0 runs
    in
    let slo_hit factor =
      float_of_int
        (List.length
           (List.filter
              (function
                | Ok s -> s.Wf.Executor.makespan <= factor *. clean_ms
                | Error _ -> false)
              runs))
      /. n_runs
    in
    ( rate, completed, availability, mean_ms, mean_j,
      sum (fun s -> s.Wf.Executor.retries),
      sum (fun s -> s.Wf.Executor.timeouts),
      sum (fun s -> s.Wf.Executor.speculative),
      sum (fun s -> s.Wf.Executor.recomputed),
      List.map slo_hit slos )
  in
  let rates = [ 0.0; 0.1; 0.2; 0.3 ] in
  let rows = List.map run_rate rates in
  Printf.printf
    "workflow: layered 5x4 (%d tasks), clean makespan %s, %d seeds per rate\n\n"
    n_tasks (time_str clean_ms) (List.length seeds);
  table
    ~cols:
      [ "fault rate"; "runs done"; "avail"; "makespan"; "overhead"; "energy";
        "retries"; "timeouts"; "spec"; "recomp" ]
    (List.map
       (fun (rate, completed, avail, ms, j, re, ti, sp, rc, _) ->
         [ f2 rate;
           Printf.sprintf "%d/%d" completed (List.length seeds);
           Printf.sprintf "%.1f%%" (100.0 *. avail);
           time_str ms;
           Printf.sprintf "%+.0f%%" (100.0 *. (ms /. clean_ms -. 1.0));
           Printf.sprintf "%.1fJ" j;
           string_of_int re; string_of_int ti; string_of_int sp;
           string_of_int rc ])
       rows);
  Printf.printf "\nSLO attainment (fraction of runs within k x clean makespan):\n\n";
  table
    ~cols:("fault rate" :: List.map (fun k -> Printf.sprintf "<= %.1fx" k) slos)
    (List.map
       (fun (rate, _, _, _, _, _, _, _, _, hits) ->
         f2 rate :: List.map (fun h -> Printf.sprintf "%.0f%%" (100.0 *. h)) hits)
       rows);
  let json =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"workflow\": {\"tasks\": %d, \"clean_makespan_s\": %.9g, \
          \"clean_energy_j\": %.9g},\n"
         n_tasks clean_ms clean_j);
    Buffer.add_string buf
      (Printf.sprintf "  \"seeds_per_rate\": %d,\n" (List.length seeds));
    Buffer.add_string buf "  \"rates\": [\n";
    List.iteri
      (fun i (rate, completed, avail, ms, j, re, ti, sp, rc, hits) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"fault_rate\": %g, \"runs_completed\": %d, \
              \"availability\": %.4f, \"mean_makespan_s\": %.9g, \
              \"makespan_overhead_pct\": %.1f, \"mean_energy_j\": %.9g, \
              \"retries\": %d, \"timeouts\": %d, \"speculative\": %d, \
              \"recomputed\": %d, \"slo\": {%s}}%s\n"
             rate completed avail ms
             (100.0 *. (ms /. clean_ms -. 1.0))
             j re ti sp rc
             (String.concat ", "
                (List.map2
                   (fun k h -> Printf.sprintf "\"%.1fx\": %.2f" k h)
                   slos hits))
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    Buffer.contents buf
  in
  let oc = open_out "BENCH_e14.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "\nwrote BENCH_e14.json\n\
     Expected shape: at fault rate 0 the overhead is exactly 0%% (the\n\
     resilience plumbing is free when nothing fails); at 10-30%% node\n\
     failure the workflow still completes on every seed via retries,\n\
     speculation and lineage recomputation, with makespan overhead\n\
     growing with the fault rate and energy tracking the re-executed work.\n"

(* ================================================================= E15 == *)
(* everest_observe claim: run analytics are pull-only and cheap — building
   the full report (critical path and utilization in one analyzer pass,
   quantiles, SLOs) from a traced chaos run costs under 5% of the run it
   describes.  Results also land in BENCH_e15.json. *)

let e15 () =
  header "E15 (observe): report generation cost vs the run it analyzes";
  let module Res = Everest_resilience in
  let module Obs = Everest_observe in
  let module Tel = Everest_telemetry in
  let dag = Wf.Dag.layered ~seed:7 ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 () in
  let nodes =
    List.map
      (fun (n : Plat.Node.t) -> n.Plat.Node.name)
      (Plat.Cluster.everest_demonstrator ()).Plat.Cluster.nodes
  in
  let _, clean = Wf.Executor.run_on_demonstrator ~policy:"heft-locality" dag in
  let clean_ms = clean.Wf.Executor.makespan in
  let faults =
    Res.Faults.random_plan ~seed:7 ~fault_rate:0.2
      ~mean_downtime:(0.25 *. clean_ms) ~transient_prob:0.05
      ~fpga_transient_prob:0.02 ~nodes ~horizon:clean_ms ()
  in
  let run () =
    let registry = Tel.Metrics.create_registry () in
    let _, stats =
      Wf.Executor.run_on_demonstrator ~policy:"heft-locality" ~faults
        ~exec_policy:Res.Policy.chaos ~tracer:`Sim ~registry dag
    in
    stats
  in
  (* Interleaved batches, minimum batch time per phase: the minimum is the
     pass least disturbed by the OS.  Reports are lazy and memoized, so
     each timed force gets a fresh (untimed) run behind it. *)
  let reps = 20 and batches = 10 in
  for _ = 1 to 5 do ignore (Lazy.force (run ()).Wf.Executor.report) done;
  let best_run = ref infinity and best_report = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    let stats = Array.init reps (fun _ -> run ()) in
    let t1 = Unix.gettimeofday () in
    Array.iter (fun s -> ignore (Lazy.force s.Wf.Executor.report)) stats;
    let t2 = Unix.gettimeofday () in
    best_run := Float.min !best_run ((t1 -. t0) /. float_of_int reps);
    best_report := Float.min !best_report ((t2 -. t1) /. float_of_int reps)
  done;
  let t_run = !best_run and t_report = !best_report in
  let report_pct = 100.0 *. t_report /. t_run in
  (* one representative report for the shape numbers and the diff cost *)
  let stats = run () in
  let report = Lazy.force stats.Wf.Executor.report in
  let js = Obs.Report.to_json report in
  let t_diff =
    let n = 100 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do ignore (Obs.Regress.diff ~before:js ~after:js ()) done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let cp_steps, cp_dur =
    match report.Obs.Report.r_cp with
    | Some cp ->
        (List.length cp.Obs.Critical_path.steps, cp.Obs.Critical_path.duration_s)
    | None -> (0, 0.0)
  in
  let budget_pct = 5.0 in
  table
    ~cols:[ "phase"; "per-run"; "share of run" ]
    [ [ "traced chaos run (executor)"; time_str t_run; "100%" ];
      [ "force report (cp+util+slo)"; time_str t_report;
        Printf.sprintf "%.2f%%" report_pct ];
      [ "regress diff (report vs self)"; time_str t_diff;
        Printf.sprintf "%.2f%%" (100.0 *. t_diff /. t_run) ] ];
  Printf.printf
    "\nreport: %d spans -> %d critical-path steps (%s of %s makespan), %d nodes\n"
    report.Obs.Report.r_spans cp_steps (time_str cp_dur)
    (time_str report.Obs.Report.r_makespan_s)
    (match report.Obs.Report.r_util with
    | Some u -> List.length u.Obs.Utilization.u_nodes
    | None -> 0);
  let json =
    Printf.sprintf
      "{\n\
      \  \"run_s\": %.9g,\n\
      \  \"report_s\": %.9g,\n\
      \  \"report_pct_of_run\": %.3f,\n\
      \  \"diff_s\": %.9g,\n\
      \  \"spans\": %d,\n\
      \  \"cp_steps\": %d,\n\
      \  \"cp_duration_s\": %.9g,\n\
      \  \"makespan_s\": %.9g,\n\
      \  \"budget_pct\": %.1f,\n\
      \  \"within_budget\": %b\n\
       }\n"
      t_run t_report report_pct t_diff report.Obs.Report.r_spans cp_steps
      cp_dur report.Obs.Report.r_makespan_s budget_pct
      (report_pct < budget_pct)
  in
  let oc = open_out "BENCH_e15.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "\nwrote BENCH_e15.json\n\
     Expected shape: the analytics are pull-only, so the run itself pays\n\
     nothing; forcing the report (critical path with self/wait split,\n\
     per-node utilization, quantiles, completion SLO) stays under the\n\
     %.0f%%-of-run budget.\n"
    budget_pct

(* everest_serving claim: the serving fabric scales — aggregate sustained
   throughput at a fixed p99 latency SLO grows from 1 to 16 shards, and
   under the e14-style 20% fault plan the fleet keeps >= 99% availability
   with worker auto-allocation absorbing the displaced load.  Results also
   land in BENCH_e16.json. *)

let e16 () =
  header
    "E16 (serving): sustained req/s at the p99 SLO and availability under \
     faults, 1 -> 16 shards";
  let module Srv = Everest_serving in
  let module Res = Everest_resilience in
  let module Tel = Everest_telemetry in
  let horizon = 0.3 in
  let p99_limit_s = 0.05 in
  let shard_counts = [ 1; 4; 16 ] in
  let tenants rate =
    [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
        ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
        ~burst:
          { Srv.Workload.burst_factor = 3.0; mean_calm_s = 0.1;
            mean_burst_s = 0.05 }
        ();
      Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
        ~think_s:0.05 () ]
  in
  let run_at ?(faults = Res.Faults.none) n_shards rate =
    let config =
      { (Srv.Fabric.default_config ~n_shards) with Srv.Fabric.seed = 7; faults }
    in
    Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) config
      ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants:(tenants rate) ~horizon
  in
  (* sustained = the highest rung of a per-shard offered-load ladder the
     fleet absorbs with p99 within the SLO and nothing shed or failed *)
  let ladder = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ] in
  let sustain n_shards =
    List.fold_left
      (fun best per_shard ->
        let rate = per_shard *. float_of_int n_shards in
        let r = run_at n_shards rate in
        let p99 = Srv.Fabric.latency_quantile r 0.99 in
        if
          p99 <= p99_limit_s
          && Srv.Fabric.shed r = 0
          && Srv.Fabric.availability r >= 1.0
        then Some (rate, Srv.Fabric.throughput_rps r, p99, r)
        else best)
      None ladder
  in
  let sustained = List.map (fun n -> (n, sustain n)) shard_counts in
  let tput n =
    match List.assoc n sustained with Some (_, t, _, _) -> t | None -> 0.0
  in
  (* availability under the e14-style fault plan: 20% per-shard crash
     probability, downtime a quarter of the horizon, autoscale on *)
  let fault_runs =
    List.map
      (fun n ->
        let faults =
          Res.Faults.random_plan ~seed:7 ~fault_rate:0.2
            ~mean_downtime:(0.25 *. horizon)
            ~nodes:(List.init n (Printf.sprintf "shard%d"))
            ~horizon ()
        in
        (n, run_at ~faults n (200.0 *. float_of_int n)))
      shard_counts
  in
  table
    ~cols:
      [ "shards"; "sustained req/s"; "p99"; "workers spawned";
        "avail @ 20% faults" ]
    (List.map
       (fun n ->
         let sus = List.assoc n sustained in
         let fr = List.assoc n fault_runs in
         [ string_of_int n;
           (match sus with
           | Some (_, t, _, _) -> Printf.sprintf "%.0f" t
           | None -> "-");
           (match sus with
           | Some (_, _, p, _) -> time_str p
           | None -> "-");
           (match sus with
           | Some (_, _, _, r) -> string_of_int r.Srv.Fabric.f_spawned
           | None -> "-");
           Printf.sprintf "%.2f%%" (100.0 *. Srv.Fabric.availability fr) ])
       shard_counts);
  let scaling = if tput 1 > 0.0 then tput 16 /. tput 1 else 0.0 in
  let avail16 = Srv.Fabric.availability (List.assoc 16 fault_runs) in
  let fr16 = List.assoc 16 fault_runs in
  Printf.printf
    "\nscaling 1 -> 16 shards: %.2fx aggregate sustained throughput\n\
     under faults (16 shards): availability %.2f%%, %d reroutes, %d workers \
     spawned\n"
    scaling (100.0 *. avail16) fr16.Srv.Fabric.f_reroutes
    fr16.Srv.Fabric.f_spawned;
  let passed = scaling > 1.0 && avail16 >= 0.99 in
  let json =
    Printf.sprintf
      "{\n\
      \  \"horizon_s\": %.9g,\n\
      \  \"p99_limit_s\": %.9g,\n\
      \  \"shards\": [%s],\n\
      \  \"sustained_rps\": [%s],\n\
      \  \"p99_s\": [%s],\n\
      \  \"availability_at_20pct_faults\": [%s],\n\
      \  \"scaling_1_to_16\": %.4f,\n\
      \  \"availability_16_shards\": %.6f,\n\
      \  \"passed\": %b\n\
       }\n"
      horizon p99_limit_s
      (String.concat ", " (List.map string_of_int shard_counts))
      (String.concat ", "
         (List.map (fun n -> Printf.sprintf "%.3f" (tput n)) shard_counts))
      (String.concat ", "
         (List.map
            (fun n ->
              match List.assoc n sustained with
              | Some (_, _, p, _) -> Printf.sprintf "%.9g" p
              | None -> "-1")
            shard_counts))
      (String.concat ", "
         (List.map
            (fun (_, fr) -> Printf.sprintf "%.6f" (Srv.Fabric.availability fr))
            fault_runs))
      scaling avail16 passed
  in
  let oc = open_out "BENCH_e16.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "\nwrote BENCH_e16.json\n\
     Expected shape: one shard saturates low on the offered-load ladder;\n\
     adding shards raises the highest rung served inside the %.0fms p99 SLO\n\
     (>1x aggregate from 1 to 16), and the 20%% fault plan costs the fleet\n\
     little availability because breaker-draining shards hand queued work\n\
     to siblings and auto-allocation re-absorbs the displaced load.\n"
    (1000.0 *. p99_limit_s)

(* ---- micro-benchmarks (Bechamel) ---------------------------------------------- *)

let micro ?(quota = 0.5) () =
  let open Bechamel in
  let aes_key = Sec.Aes.key_of_string "0123456789abcdef" in
  let block = Bytes.make 16 'b' in
  let sha_buf = Bytes.make 1024 's' in
  let dfg = Hls.Cdfg.random ~seed:4 ~n:100 ~load_frac:0.25 ~mul_frac:0.3 () in
  let ctx = Everest_ir.Ir.ctx () in
  let a = TE.input "a" [ 32; 32 ] in
  let kernel_f = Dsl.Lower.lower_expr ctx (TE.matmul a a) in
  let av =
    TE.tensor [ 32; 32 ] (Array.init 1024 (fun i -> float_of_int (i mod 7)))
  in
  let city = Everest_traffic.Roadnet.grid_city ~rows:8 ~cols:8 () in
  let prof = Everest_traffic.Profiles.create city ~periods:24 in
  let route = Option.get (Everest_traffic.Routing.free_flow city ~src:0 ~dst:63) in
  let rng = Everest_ml.Rng.create 1 in
  let tests =
    [ Test.make ~name:"aes128-encrypt-block"
        (Staged.stage (fun () -> Sec.Aes.encrypt_block aes_key block));
      Test.make ~name:"sha256-1KiB"
        (Staged.stage (fun () -> Sec.Sha256.digest_bytes sha_buf));
      Test.make ~name:"hls-list-schedule-100n"
        (Staged.stage (fun () -> Hls.Schedule.list_schedule dfg));
      Test.make ~name:"ir-interp-matmul-32x32"
        (Staged.stage (fun () -> Dsl.Lower.run_lowered ctx kernel_f [ av ]));
      Test.make ~name:"plume-field-32x32"
        (Staged.stage (fun () ->
             Everest_airq.Plume.field ~cells:32
               ~sources:
                 [ { Everest_airq.Plume.sx = 0.0; sy = 0.0; height_m = 30.0;
                     emission_gs = 100.0 } ]
               ~wind_ms:5.0 ~wind_dir_rad:0.3 ~cls:Everest_airq.Plume.D ()));
      Test.make ~name:"ptdr-mc-rollout"
        (Staged.stage (fun () ->
             Everest_traffic.Ptdr.rollout rng city prof route.Everest_traffic.Routing.links
               ~depart:0.0));
      Test.make ~name:"dijkstra-8x8-city"
        (Staged.stage (fun () -> Everest_traffic.Routing.free_flow city ~src:0 ~dst:63))
    ]
  in
  print_benchmarks ~quota "Micro-benchmarks (Bechamel)" tests

let all () =
  e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 (); e10 ();
  e11 (); e12 (); e13 (); e14 (); e15 (); e16 (); micro ()

let by_name = function
  | "e1" -> Some e1 | "e2" -> Some e2 | "e3" -> Some e3 | "e4" -> Some e4
  | "e5" -> Some e5 | "e6" -> Some e6 | "e7" -> Some e7 | "e8" -> Some e8
  | "e9" -> Some e9 | "e10" -> Some e10 | "e11" -> Some e11
  | "e12" -> Some e12 | "e13" -> Some e13 | "e14" -> Some e14
  | "e15" -> Some e15 | "e16" -> Some e16
  | "micro" -> Some (fun () -> micro ())
  | "all" -> Some all
  | _ -> None
