(* Tests for everest_hls: DFG construction, scheduling, binding, memory
   partitioning, estimation, DIFT and RTL generation. *)

open Everest_hls
module TE = Everest_dsl.Tensor_expr
module Hw_lower = Everest_compiler.Hw_lower

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A small hand-built DFG: two independent mul chains feeding an add,
   then a store. *)
let diamond () =
  let b = Cdfg.builder () in
  Cdfg.declare_array b "a" 64;
  let c1 = Cdfg.add_node b Cdfg.Const "const" [] in
  let l1 = Cdfg.add_node b ~array:"a" ~index:(Cdfg.Affine { coeff = 1; offset = 0 }) Cdfg.Load "load" [] in
  let l2 = Cdfg.add_node b ~array:"a" ~index:(Cdfg.Affine { coeff = 1; offset = 1 }) Cdfg.Load "load" [] in
  let m1 = Cdfg.add_node b Cdfg.Mul "mul" [ l1; c1 ] in
  let m2 = Cdfg.add_node b Cdfg.Mul "mul" [ l2; c1 ] in
  let s = Cdfg.add_node b Cdfg.Add "add" [ m1; m2 ] in
  let _st = Cdfg.add_node b ~array:"a" ~index:(Cdfg.Affine { coeff = 1; offset = 2 }) Cdfg.Store "store" [ s ] in
  Cdfg.finish b

(* ---- scheduling -------------------------------------------------------------- *)

let test_asap_chain () =
  let b = Cdfg.builder () in
  let n1 = Cdfg.add_node b Cdfg.Add "a" [] in
  let n2 = Cdfg.add_node b Cdfg.Mul "m" [ n1 ] in
  let n3 = Cdfg.add_node b Cdfg.Div "d" [ n2 ] in
  let g = Cdfg.finish b in
  let s = Schedule.asap g in
  checki "chain latency" (1 + 3 + 12) s.Schedule.makespan;
  checki "n3 starts after mul" 4 s.Schedule.start.(n3);
  checki "n2 starts after add" 1 s.Schedule.start.(n2)

let test_asap_parallel () =
  let b = Cdfg.builder () in
  let _ = Cdfg.add_node b Cdfg.Add "a" [] in
  let _ = Cdfg.add_node b Cdfg.Add "b" [] in
  let g = Cdfg.finish b in
  let s = Schedule.asap g in
  checki "parallel adds" 1 s.Schedule.makespan

let test_list_schedule_valid () =
  let g = diamond () in
  let res = Schedule.default_resources in
  let s = Schedule.list_schedule ~res g in
  checkb "dependencies respected" true (Schedule.validate g s ~res);
  checkb "binding valid" true (Bind.validate g s (Bind.bind g s));
  checkb "no slower than needed" true
    (s.Schedule.makespan >= (Schedule.asap g).Schedule.makespan)

let test_resource_pressure_monotone () =
  let g = Cdfg.random ~n:120 ~load_frac:0.2 ~mul_frac:0.4 () in
  let rich =
    Schedule.list_schedule
      ~res:{ Schedule.default_resources with multipliers = 8; adders = 8 } g
  in
  let poor =
    Schedule.list_schedule
      ~res:{ Schedule.default_resources with multipliers = 1; adders = 1 } g
  in
  checkb "fewer units, longer schedule" true
    (poor.Schedule.makespan >= rich.Schedule.makespan);
  checkb "rich no faster than ASAP" true
    (rich.Schedule.makespan >= (Schedule.asap g).Schedule.makespan)

let test_min_ii () =
  let b = Cdfg.builder () in
  for _ = 1 to 4 do ignore (Cdfg.add_node b Cdfg.Mul "m" []) done;
  let g = Cdfg.finish b in
  checki "4 muls / 2 units" 2
    (Schedule.fu_min_ii ~res:{ Schedule.default_resources with multipliers = 2 } g);
  checki "4 muls / 4 units" 1
    (Schedule.fu_min_ii ~res:{ Schedule.default_resources with multipliers = 4 } g)

let test_pipelined_cycles () =
  let g = diamond () in
  let d = Hls.synthesize ~c:{ Hls.default_constraints with trips = 100 } g in
  let seq = d.Hls.schedule.Schedule.makespan * 100 in
  checkb "pipelining wins on many trips" true
    (d.Hls.estimate.Estimate.cycles < seq)

(* ---- binding ------------------------------------------------------------------- *)

let adders (bd : Bind.binding) =
  List.length (List.filter (fun f -> f.Bind.fu_class = Cdfg.Add) bd.Bind.fus)

let test_binding_shares_fus () =
  let b = Cdfg.builder () in
  (* two adds that cannot overlap (dependency) share one adder *)
  let n1 = Cdfg.add_node b Cdfg.Add "a" [] in
  let _n2 = Cdfg.add_node b Cdfg.Add "b" [ n1 ] in
  let g = Cdfg.finish b in
  let s = Schedule.list_schedule g in
  let bd = Bind.bind g s in
  checki "one adder" 1 (adders bd)

let test_binding_parallel_needs_two () =
  let b = Cdfg.builder () in
  let _ = Cdfg.add_node b Cdfg.Add "a" [] in
  let _ = Cdfg.add_node b Cdfg.Add "b" [] in
  let g = Cdfg.finish b in
  let s = Schedule.list_schedule g in
  let bd = Bind.bind g s in
  checki "two adders" 2 (adders bd)

(* ---- memory partitioning --------------------------------------------------------- *)

let test_partition_cyclic_stride1 () =
  (* unroll 4, accesses i, i+1, i+2, i+3: cyclic with 4 banks is conflict-free *)
  let accesses = [ Cdfg.Affine { coeff = 1; offset = 0 } ] in
  let cfg = { Mem_partition.scheme = Mem_partition.Cyclic; banks = 4 } in
  checki "cyclic conflict-free" 0
    (Mem_partition.conflicts cfg ~array_size:64 ~unroll:4 ~window:8 accesses);
  let blk = { Mem_partition.scheme = Mem_partition.Block; banks = 4 } in
  checkb "block has conflicts on stride-1" true
    (Mem_partition.conflicts blk ~array_size:64 ~unroll:4 ~window:8 accesses > 0)

let test_partition_block_for_blocked () =
  (* accesses i and i+32 over 64 elements: block banking separates them *)
  let accesses =
    [ Cdfg.Affine { coeff = 1; offset = 0 }; Cdfg.Affine { coeff = 1; offset = 32 } ]
  in
  let blk = { Mem_partition.scheme = Mem_partition.Block; banks = 2 } in
  checki "block separates halves" 0
    (Mem_partition.conflicts blk ~array_size:64 ~unroll:1 ~window:8 accesses)

let test_partition_optimize () =
  let accesses = [ Cdfg.Affine { coeff = 1; offset = 0 } ] in
  let cfg, ii = Mem_partition.optimize ~ports:1 ~array_size:64 ~unroll:8 accesses in
  checki "found conflict-free banking" 1 ii;
  checkb "needs >= 8 banks" true (cfg.Mem_partition.banks >= 8)

let test_partition_dfg_improves_ii () =
  let g = diamond () in
  let _, mem_ii = Mem_partition.optimize_dfg ~ports:1 ~unroll:1 g in
  (* three accesses to "a" on one port need banking to reach II 1 *)
  checki "banked II" 1 mem_ii

(* ---- estimation ------------------------------------------------------------------ *)

let test_estimate_areas () =
  let g = diamond () in
  let s = Schedule.list_schedule g in
  let bd = Bind.bind g s in
  let e = Estimate.of_design g bd ~cycles:s.Schedule.makespan ~ii:1 ~banks:1 in
  checkb "has DSPs from muls" true (e.Estimate.area.Estimate.dsps > 0);
  checkb "has BRAM" true (e.Estimate.area.Estimate.brams >= 1);
  checkb "positive power" true (e.Estimate.dynamic_power_w > 0.0);
  checki "cycles as scheduled" s.Schedule.makespan e.Estimate.cycles;
  let budget = { Estimate.luts = 10_000; ffs = 10_000; dsps = 100; brams = 50 } in
  checkb "fits a mid-size FPGA" true (Estimate.fits ~budget e)

(* ---- DIFT -------------------------------------------------------------------------- *)

let test_dift_propagation () =
  let g = diamond () in
  let inst = Dift.instrument g in
  checki "one check at the store" 1 (List.length inst.Dift.checks);
  (* the taint bit propagates through every non-constant node: an OR gate
     and a flip-flop for each of the diamond's six, plus a comparator and a
     trap register at the check *)
  checki "shadow LUTs" ((2 * 6) + 6) inst.Dift.shadow_area.Estimate.luts;
  checki "shadow FFs" (6 + 2) inst.Dift.shadow_area.Estimate.ffs

(* ---- RTL --------------------------------------------------------------------------- *)

let test_rtl_emission () =
  let g = diamond () in
  let d = Hls.synthesize ~name:"diamond" g in
  let text = Rtl.to_string d.Hls.rtl in
  checkb "module header" true
    (String.length text > 0
    && String.sub text 0 14 = "module diamond");
  checki "one state per cycle" d.Hls.schedule.Schedule.makespan
    (List.length d.Hls.rtl.Rtl.states);
  checkb "instances emitted" true (List.length d.Hls.rtl.Rtl.instances > 0)

(* ---- from the compiler's kernel expressions ------------------------------- *)

(* y = 3x + y, element by element *)
let saxpy =
  let x = TE.input "x" [ 64 ] and y = TE.input "y" [ 64 ] in
  TE.add (TE.scale 3.0 x) y

let load_indices g =
  Array.to_list g.Cdfg.nodes
  |> List.filter_map (fun (n : Cdfg.node) ->
         if n.Cdfg.cls = Cdfg.Load then Some n.Cdfg.index else None)

let test_cdfg_from_ir () =
  let g = Hw_lower.dfg_of_expr saxpy in
  checki "five nodes" 5 (Cdfg.size g);
  checki "two loads" 2 (Cdfg.count_class g Cdfg.Load);
  checki "one store" 1 (Cdfg.count_class g Cdfg.Store);
  checki "one mul" 1 (Cdfg.count_class g Cdfg.Mul);
  checkb "affine indices" true
    (List.for_all
       (function Cdfg.Affine { coeff = 1; offset = 0 } -> true | _ -> false)
       (load_indices g))

(* Unrolling replicates the body with each copy's accesses shifted by one
   element. *)
let test_cdfg_affine_arith () =
  let g = Hw_lower.dfg_of_expr ~unroll:4 saxpy in
  checki "four bodies" 20 (Cdfg.size g);
  let offsets =
    List.map
      (function Cdfg.Affine { coeff = 1; offset } -> offset | _ -> -1)
      (load_indices g)
  in
  Alcotest.(check (list int)) "offsets i..i+3" [ 0; 0; 1; 1; 2; 2; 3; 3 ] offsets

let test_synthesize_ir_end_to_end () =
  let c = { Hls.default_constraints with trips = 64; unroll = 2 } in
  let d = Hls.synthesize ~c ~name:"saxpy" (Hw_lower.dfg_of_expr ~unroll:2 saxpy) in
  checkb "pipelined" true (d.Hls.estimate.Estimate.ii >= 1);
  checkb "fewer cycles than sequential x64" true
    (d.Hls.estimate.Estimate.cycles < d.Hls.schedule.Schedule.makespan * 64);
  checkb "valid schedule" true
    (Schedule.validate d.Hls.dfg d.Hls.schedule ~res:c.Hls.res)

let test_dift_area_increases () =
  let g = diamond () in
  let base = Hls.synthesize ~name:"k" g in
  let sec =
    Hls.synthesize ~c:{ Hls.default_constraints with dift = true } ~name:"k" g
  in
  checkb "DIFT adds area" true
    (sec.Hls.estimate.Estimate.area.Estimate.luts
    > base.Hls.estimate.Estimate.area.Estimate.luts);
  checki "same cycles" base.Hls.estimate.Estimate.cycles
    sec.Hls.estimate.Estimate.cycles

(* property: schedules from random DFGs are always valid and binding-safe *)
let prop_schedule_valid =
  QCheck.Test.make ~count:40 ~name:"list schedule validity on random DFGs"
    QCheck.(make Gen.(int_range 5 80))
    (fun n ->
      let g = Cdfg.random ~seed:(n * 7) ~n ~load_frac:0.25 ~mul_frac:0.3 () in
      let res = Schedule.default_resources in
      let s = Schedule.list_schedule ~res g in
      Schedule.validate g s ~res && Bind.validate g s (Bind.bind g s))

let prop_partition_never_hurts =
  QCheck.Test.make ~count:30 ~name:"partitioning never raises memory II"
    QCheck.(make Gen.(int_range 2 16))
    (fun unroll ->
      let accesses = [ Cdfg.Affine { coeff = 1; offset = 0 } ] in
      let single = { Mem_partition.scheme = Mem_partition.Cyclic; banks = 1 } in
      let ii1 = Mem_partition.ii_for single ~ports:2 ~array_size:256 ~unroll accesses in
      let _, ii_opt = Mem_partition.optimize ~ports:2 ~array_size:256 ~unroll accesses in
      ii_opt <= ii1)

let () =
  Alcotest.run "everest_hls"
    [
      ( "schedule",
        [ Alcotest.test_case "asap chain" `Quick test_asap_chain;
          Alcotest.test_case "asap parallel" `Quick test_asap_parallel;
          Alcotest.test_case "list valid" `Quick test_list_schedule_valid;
          Alcotest.test_case "resource pressure" `Quick test_resource_pressure_monotone;
          Alcotest.test_case "min II" `Quick test_min_ii;
          Alcotest.test_case "pipelining" `Quick test_pipelined_cycles ] );
      ( "bind",
        [ Alcotest.test_case "shares FUs" `Quick test_binding_shares_fus;
          Alcotest.test_case "parallel needs two" `Quick test_binding_parallel_needs_two ] );
      ( "partition",
        [ Alcotest.test_case "cyclic stride-1" `Quick test_partition_cyclic_stride1;
          Alcotest.test_case "block for halves" `Quick test_partition_block_for_blocked;
          Alcotest.test_case "optimize" `Quick test_partition_optimize;
          Alcotest.test_case "dfg II" `Quick test_partition_dfg_improves_ii ] );
      ("estimate", [ Alcotest.test_case "areas" `Quick test_estimate_areas ]);
      ( "dift",
        [ Alcotest.test_case "propagation" `Quick test_dift_propagation;
          Alcotest.test_case "area overhead" `Quick test_dift_area_increases ] );
      ("rtl", [ Alcotest.test_case "emission" `Quick test_rtl_emission ]);
      ( "from-ir",
        [ Alcotest.test_case "saxpy body" `Quick test_cdfg_from_ir;
          Alcotest.test_case "affine recovery" `Quick test_cdfg_affine_arith;
          Alcotest.test_case "end-to-end" `Quick test_synthesize_ir_end_to_end ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_schedule_valid; prop_partition_never_hurts ] );
    ]
