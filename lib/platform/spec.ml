(* Hardware specifications of the EVEREST target system (Fig. 3 / Fig. 4):
   CPU models (POWER9 cloud, ARM/RISC-V edge), FPGA devices (bus-attached
   coherent and network-attached cloudFPGA), memories and interconnects.

   Numbers are calibrated to public figures for the respective devices; the
   experiments depend on their relative magnitudes, not the absolutes. *)

type cpu = {
  cpu_name : string;
  cores : int;
  freq_ghz : float;
  flops_per_cycle : float;  (* per core, fused-multiply-add SIMD width *)
  mem_bw_gbs : float;
  idle_w : float;
  active_w_per_core : float;
}

let power9 =
  { cpu_name = "POWER9"; cores = 16; freq_ghz = 3.3; flops_per_cycle = 16.0;
    mem_bw_gbs = 140.0; idle_w = 90.0; active_w_per_core = 12.0 }

let arm_edge =
  { cpu_name = "ARM-edge"; cores = 4; freq_ghz = 1.8; flops_per_cycle = 8.0;
    mem_bw_gbs = 12.0; idle_w = 3.0; active_w_per_core = 2.0 }

let riscv_endpoint =
  { cpu_name = "RISC-V-endpoint"; cores = 2; freq_ghz = 1.0; flops_per_cycle = 2.0;
    mem_bw_gbs = 3.0; idle_w = 0.5; active_w_per_core = 0.8 }

(* peak flops of the whole CPU *)
let cpu_peak_flops c =
  float_of_int c.cores *. c.freq_ghz *. 1e9 *. c.flops_per_cycle

(* Execution time of a kernel on [threads] cores with an efficiency factor
   (memory-bound kernels are capped by bandwidth via the roofline). *)
let cpu_time c ~flops ~bytes ~threads =
  let threads = Int.max 1 (Int.min threads c.cores) in
  let compute =
    flops /. (float_of_int threads *. c.freq_ghz *. 1e9 *. c.flops_per_cycle)
  in
  let memory = bytes /. (c.mem_bw_gbs *. 1e9) in
  Float.max compute memory

type attachment = Bus_coherent | Network_attached

type fpga = {
  fpga_name : string;
  attach : attachment;
  luts : int;
  ffs : int;
  dsps : int;
  brams : int;
  clock_mhz : float;
  role_slots : int;  (* shell-role: concurrent partial-reconfig regions *)
  reconfig_s : float;  (* partial reconfiguration time per role *)
  idle_w : float;
  active_w : float;
}

(* AD9V3-class card behind OpenCAPI, as in the POWER9 HELM platform. *)
let bus_fpga =
  { fpga_name = "AD9V3-OpenCAPI"; attach = Bus_coherent; luts = 1_182_000;
    ffs = 2_364_000; dsps = 6_840; brams = 4_032; clock_mhz = 250.0;
    role_slots = 2; reconfig_s = 0.120; idle_w = 25.0;
    active_w = 60.0 }

(* cloudFPGA module (Kintex-class, standalone on the DC network). *)
let cloud_fpga =
  { fpga_name = "cloudFPGA-KU060"; attach = Network_attached; luts = 663_000;
    ffs = 1_326_000; dsps = 2_760; brams = 2_160; clock_mhz = 200.0;
    role_slots = 2; reconfig_s = 0.080; idle_w = 15.0;
    active_w = 35.0 }

let edge_fpga =
  { fpga_name = "edge-Zynq"; attach = Bus_coherent; luts = 274_000;
    ffs = 548_000; dsps = 2_520; brams = 912; clock_mhz = 150.0;
    role_slots = 1; reconfig_s = 0.050; idle_w = 2.0;
    active_w = 8.0 }

let fpga_budget (f : fpga) =
  { Everest_hls.Estimate.luts = f.luts; ffs = f.ffs; dsps = f.dsps;
    brams = f.brams }

(* Kernel execution time on an FPGA given its HLS estimate, rescaled to the
   device clock. *)
let fpga_kernel_time (f : fpga) (e : Everest_hls.Estimate.t) =
  float_of_int e.Everest_hls.Estimate.cycles /. (f.clock_mhz *. 1e6)

type link = {
  link_name : string;
  latency_s : float;
  bandwidth_gbs : float;
  per_msg_s : float;  (* protocol/software overhead per message *)
}

let opencapi =
  { link_name = "OpenCAPI"; latency_s = 0.3e-6; bandwidth_gbs = 25.0;
    per_msg_s = 0.1e-6 }

let pcie3 =
  { link_name = "PCIe3x16"; latency_s = 0.9e-6; bandwidth_gbs = 12.0;
    per_msg_s = 2.0e-6 }

let eth100_tcp =
  { link_name = "100GbE-TCP"; latency_s = 12.0e-6; bandwidth_gbs = 11.0;
    per_msg_s = 8.0e-6 }

let eth10_tcp =
  { link_name = "10GbE-TCP"; latency_s = 30.0e-6; bandwidth_gbs = 1.1;
    per_msg_s = 10.0e-6 }

let eth10_udp =
  { link_name = "10GbE-UDP"; latency_s = 25.0e-6; bandwidth_gbs = 1.2;
    per_msg_s = 3.0e-6 }

let wan =
  { link_name = "WAN"; latency_s = 10.0e-3; bandwidth_gbs = 0.125;
    per_msg_s = 50.0e-6 }

let transfer_time (l : link) ~bytes =
  l.latency_s +. l.per_msg_s +. (float_of_int bytes /. (l.bandwidth_gbs *. 1e9))

(* The link between a host and its FPGA: OpenCAPI to a bus-attached card,
   the DC network to a network-attached module. *)
let host_link (f : fpga) =
  match f.attach with Bus_coherent -> opencapi | Network_attached -> eth100_tcp

type tier = Endpoint | Inner_edge | Cloud
