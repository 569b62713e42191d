(* Tests for everest_platform: event engine, resources, node/link models and
   the canonical EVEREST demonstrator topology. *)

open Everest_platform

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ---- desim ------------------------------------------------------------------- *)

let test_event_ordering () =
  let sim = Desim.create () in
  let log = ref [] in
  Desim.schedule sim 3.0 (fun () -> log := "c" :: !log);
  Desim.schedule sim 1.0 (fun () -> log := "a" :: !log);
  Desim.schedule sim 2.0 (fun () -> log := "b" :: !log);
  Desim.run sim;
  checkb "time order" true (List.rev !log = [ "a"; "b"; "c" ]);
  checkf 1e-12 "clock at last event" 3.0 (Desim.now sim)

let test_fifo_ties () =
  let sim = Desim.create () in
  let log = ref [] in
  Desim.schedule sim 1.0 (fun () -> log := 1 :: !log);
  Desim.schedule sim 1.0 (fun () -> log := 2 :: !log);
  Desim.schedule sim 1.0 (fun () -> log := 3 :: !log);
  Desim.run sim;
  checkb "insertion order on ties" true (List.rev !log = [ 1; 2; 3 ])

let test_nested_scheduling () =
  let sim = Desim.create () in
  let finish = ref 0.0 in
  Desim.schedule sim 1.0 (fun () ->
      Desim.schedule sim 2.0 (fun () -> finish := Desim.now sim));
  Desim.run sim;
  checkf 1e-12 "nested delay accumulates" 3.0 !finish

let test_cancel () =
  let sim = Desim.create () in
  let log = ref [] in
  let h = Desim.schedule_cancellable sim 2.0 (fun () -> log := "x" :: !log) in
  Desim.schedule sim 1.0 (fun () -> log := "a" :: !log);
  Desim.schedule sim 3.0 (fun () -> log := "b" :: !log);
  checki "two live + one cancellable pending" 3 (Desim.pending sim);
  Desim.cancel sim h;
  checki "pending excludes cancelled" 2 (Desim.pending sim);
  Desim.run sim;
  checkb "cancelled event never ran" true (List.rev !log = [ "a"; "b" ]);
  checkf 1e-12 "clock not advanced by skip" 3.0 (Desim.now sim);
  checki "cancelled event not counted" 2 (Desim.executed sim);
  (* cancelling after the fact is a no-op *)
  Desim.cancel sim h;
  checki "still two executed" 2 (Desim.executed sim)

let test_cancel_fired_noop () =
  let sim = Desim.create () in
  let fired = ref 0 in
  let h = Desim.schedule_cancellable sim 1.0 (fun () -> incr fired) in
  Desim.run sim;
  Desim.cancel sim h;  (* already fired: must not corrupt the accounting *)
  checki "fired exactly once" 1 !fired;
  checki "nothing pending" 0 (Desim.pending sim)

(* Mass cancellation must trigger in-place compaction so the heap doesn't
   retain O(n) dead entries, and the pop-side shrink must bring capacity
   back down after the burst — both invisible except through [pending]
   staying exact and ordering surviving. *)
let test_cancel_compaction () =
  let sim = Desim.create () in
  let survivors = ref [] in
  let handles =
    List.init 10_000 (fun i ->
        Desim.schedule_cancellable sim
          (1.0 +. float_of_int i)
          (fun () -> survivors := i :: !survivors))
  in
  (* cancel all but every 100th *)
  List.iteri
    (fun i h -> if i mod 100 <> 0 then Desim.cancel sim h)
    handles;
  checki "pending = survivors" 100 (Desim.pending sim);
  Desim.run sim;
  checki "all survivors ran" 100 (List.length !survivors);
  checkb "in order" true
    (List.rev !survivors = List.init 100 (fun i -> i * 100));
  checkf 1e-12 "clock at last survivor" (1.0 +. 9900.0) (Desim.now sim);
  checki "drained" 0 (Desim.pending sim)

(* Hold one unit for [duration], then release it and continue. *)
let hold sim r ~duration k =
  Desim.acquire sim r (fun () ->
      Desim.schedule sim duration (fun () ->
          Desim.release sim r;
          k ()))

let test_resource_serializes () =
  let sim = Desim.create () in
  let r = Desim.resource "unit" 1 in
  let ends = ref [] in
  for _ = 1 to 3 do
    hold sim r ~duration:2.0 (fun () -> ends := Desim.now sim :: !ends)
  done;
  Desim.run sim;
  checkb "serialized completions" true (List.rev !ends = [ 2.0; 4.0; 6.0 ])

let test_resource_parallelism () =
  let sim = Desim.create () in
  let r = Desim.resource "dual" 2 in
  let ends = ref [] in
  for _ = 1 to 4 do
    hold sim r ~duration:2.0 (fun () -> ends := Desim.now sim :: !ends)
  done;
  Desim.run sim;
  checkb "two at a time" true (List.rev !ends = [ 2.0; 2.0; 4.0; 4.0 ])

(* ---- spec models ----------------------------------------------------------------- *)

let test_cpu_roofline () =
  (* compute-bound: tiny data, many flops *)
  let t_compute = Spec.cpu_time Spec.power9 ~flops:1e12 ~bytes:1e3 ~threads:16 in
  (* memory-bound: huge data, few flops *)
  let t_memory = Spec.cpu_time Spec.power9 ~flops:1e6 ~bytes:1e12 ~threads:16 in
  checkb "compute-bound time from flops" true
    (Float.abs (t_compute -. (1e12 /. Spec.cpu_peak_flops Spec.power9)) < 1e-6);
  checkb "memory-bound time from bandwidth" true
    (Float.abs (t_memory -. (1e12 /. (Spec.power9.Spec.mem_bw_gbs *. 1e9))) < 1e-3)

let test_threads_speedup () =
  let t1 = Spec.cpu_time Spec.power9 ~flops:1e10 ~bytes:1.0 ~threads:1 in
  let t8 = Spec.cpu_time Spec.power9 ~flops:1e10 ~bytes:1.0 ~threads:8 in
  checkf 1e-9 "8x scaling when compute-bound" (t1 /. 8.0) t8

let test_link_models () =
  (* small message: latency-dominated; OpenCAPI must beat TCP by orders *)
  let oc = Spec.transfer_time Spec.opencapi ~bytes:64 in
  let tcp = Spec.transfer_time Spec.eth100_tcp ~bytes:64 in
  checkb "coherent wins small transfers" true (oc *. 10.0 < tcp);
  (* huge transfer: bandwidth-dominated; 100GbE ~ half of OpenCAPI *)
  let oc_big = Spec.transfer_time Spec.opencapi ~bytes:(1 lsl 30) in
  let tcp_big = Spec.transfer_time Spec.eth100_tcp ~bytes:(1 lsl 30) in
  checkb "bandwidth ratio bounded" true (tcp_big < oc_big *. 4.0);
  checkb "wan slowest" true
    (Spec.transfer_time Spec.wan ~bytes:(1 lsl 20)
    > Spec.transfer_time Spec.eth10_tcp ~bytes:(1 lsl 20))

(* ---- nodes ------------------------------------------------------------------------- *)

let test_cpu_contention () =
  let sim = Desim.create () in
  let node = Node.create ~name:"n" ~tier:Spec.Cloud { Spec.power9 with Spec.cores = 2 } in
  let done_times = ref [] in
  (* 4 single-thread tasks of 1e9 flops on 2 cores: two waves *)
  for _ = 1 to 4 do
    Node.run_cpu sim node ~flops:1e9 ~bytes:1.0 ~threads:1 (fun () ->
        done_times := Desim.now sim :: !done_times)
  done;
  Desim.run sim;
  checki "all ran" 4 node.Node.tasks_run;
  let ts = List.sort compare !done_times in
  checkb "two waves" true
    (List.nth ts 3 > List.nth ts 0 *. 1.5)

let p9_with_one_fpga () =
  Node.create ~name:"p9" ~tier:Spec.Cloud ~fpgas:[ Spec.bus_fpga ] Spec.power9

let test_fpga_reconfig_and_cache () =
  let sim = Desim.create () in
  let node = p9_with_one_fpga () in
  let dev = List.hd node.Node.fpgas in
  let est =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 25_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 10.0 }
  in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Node.run_fpga sim node dev ~bitstream:"k1" ~estimate:est
    ~host_link:Spec.opencapi ~in_bytes:4096 ~out_bytes:4096 (fun () ->
      t1 := Desim.now sim;
      (* second run: bitstream cached, no reconfiguration *)
      Node.run_fpga sim node dev ~bitstream:"k1" ~estimate:est
        ~host_link:Spec.opencapi ~in_bytes:4096 ~out_bytes:4096 (fun () ->
          t2 := Desim.now sim))
  ;
  Desim.run sim;
  checki "one reconfiguration" 1 dev.Node.reconfigs;
  checkb "cached run faster" true (!t2 -. !t1 < !t1);
  checkb "first run includes reconfig" true (!t1 >= Spec.bus_fpga.Spec.reconfig_s)

let test_fpga_slot_contention () =
  let sim = Desim.create () in
  let node = p9_with_one_fpga () in
  let dev = List.hd node.Node.fpgas in
  let est =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 2_500_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 10.0 }
  in
  let completions = ref 0 in
  (* 4 concurrent kernels on 2 role slots *)
  for i = 0 to 3 do
    Node.run_fpga sim node dev ~bitstream:(Printf.sprintf "k%d" (i mod 2))
      ~estimate:est ~host_link:Spec.opencapi ~in_bytes:0 ~out_bytes:0 (fun () ->
        incr completions)
  done;
  Desim.run sim;
  checki "all completed" 4 !completions;
  checkb "slots bounded concurrency" true
    (Desim.now sim >= 2.0 *. (0.01 (* 2.5e6 cycles at 250MHz *)))

let test_energy_accounting () =
  let sim = Desim.create () in
  let node = Node.create ~name:"n" ~tier:Spec.Cloud Spec.power9 in
  Node.run_cpu sim node ~flops:1e11 ~bytes:1.0 ~threads:4 (fun () -> ());
  Desim.run sim;
  let e = Node.total_energy node ~elapsed:(Desim.now sim) in
  checkb "energy positive" true (e > 0.0);
  checkb "active adds to idle" true
    (e > Spec.power9.Spec.idle_w *. Desim.now sim)

(* ---- cluster ------------------------------------------------------------------------ *)

let test_cluster_transfer () =
  let c = Cluster.everest_demonstrator () in
  let p9 = Cluster.find_node c "p9" in
  let cf0 = Cluster.find_node c "cf0" in
  let edge = Cluster.find_node c "edge0" in
  (* explicit DC link between p9 and cf0 *)
  let t_dc = Cluster.transfer_time c ~src:p9 ~dst:cf0 ~bytes:(1 lsl 20) in
  let t_wan = Cluster.transfer_time c ~src:p9 ~dst:edge ~bytes:(1 lsl 20) in
  checkb "DC link beats WAN" true (t_dc *. 10.0 < t_wan);
  let finished = ref false in
  Cluster.transfer c ~src:p9 ~dst:cf0 ~bytes:(1 lsl 20) (fun () -> finished := true);
  Cluster.run c;
  checkb "transfer completes" true !finished;
  checki "accounted" 1 c.Cluster.transfers

let test_same_node_free () =
  let c = Cluster.everest_demonstrator () in
  let p9 = Cluster.find_node c "p9" in
  checkf 1e-15 "no self transfer cost" 0.0
    (Cluster.transfer_time c ~src:p9 ~dst:p9 ~bytes:(1 lsl 30))

let test_demonstrator_shape () =
  let c = Cluster.everest_demonstrator ~cloud_fpgas:3 ~edges:2 ~endpoints:5 () in
  checki "node count" (1 + 3 + 2 + 5) (List.length c.Cluster.nodes);
  let p9 = Cluster.find_node c "p9" in
  checki "p9 has 2 bus FPGAs" 2 (List.length p9.Node.fpgas);
  checkb "bus attach" true
    ((List.hd p9.Node.fpgas).Node.fspec.Spec.attach = Spec.Bus_coherent);
  let cf = Cluster.find_node c "cf0" in
  checkb "network attach" true
    ((List.hd cf.Node.fpgas).Node.fspec.Spec.attach = Spec.Network_attached)

(* property: transfer time is monotone in bytes for every link *)
let prop_transfer_monotone =
  QCheck.Test.make ~count:50 ~name:"transfer time monotone in size"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      List.for_all
        (fun l -> Spec.transfer_time l ~bytes:lo <= Spec.transfer_time l ~bytes:hi)
        [ Spec.opencapi; Spec.pcie3; Spec.eth100_tcp; Spec.eth10_tcp;
          Spec.eth10_udp; Spec.wan ])

let () =
  Alcotest.run "everest_platform"
    [
      ( "desim",
        [ Alcotest.test_case "ordering" `Quick test_event_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "nested" `Quick test_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_cancel_fired_noop;
          Alcotest.test_case "mass cancel compaction" `Quick test_cancel_compaction;
          Alcotest.test_case "resource serializes" `Quick test_resource_serializes;
          Alcotest.test_case "resource parallel" `Quick test_resource_parallelism ] );
      ( "spec",
        [ Alcotest.test_case "cpu roofline" `Quick test_cpu_roofline;
          Alcotest.test_case "thread scaling" `Quick test_threads_speedup;
          Alcotest.test_case "links" `Quick test_link_models;
          QCheck_alcotest.to_alcotest prop_transfer_monotone ] );
      ( "node",
        [ Alcotest.test_case "cpu contention" `Quick test_cpu_contention;
          Alcotest.test_case "fpga reconfig cache" `Quick test_fpga_reconfig_and_cache;
          Alcotest.test_case "fpga slots" `Quick test_fpga_slot_contention;
          Alcotest.test_case "energy" `Quick test_energy_accounting ] );
      ( "cluster",
        [ Alcotest.test_case "transfers" `Quick test_cluster_transfer;
          Alcotest.test_case "same node free" `Quick test_same_node_free;
          Alcotest.test_case "demonstrator" `Quick test_demonstrator_shape ] );
    ]
