(** Hardware specifications of the EVEREST target system (Fig. 3 / Fig. 4):
    CPU models (POWER9 cloud, ARM/RISC-V edge), FPGA devices (bus-attached
    coherent and network-attached cloudFPGA), and interconnects.

    Numbers are calibrated to public figures for the respective devices;
    the experiments depend on their relative magnitudes, not absolutes. *)

type cpu = {
  cpu_name : string;
  cores : int;
  freq_ghz : float;
  flops_per_cycle : float;  (** Per core (SIMD FMA width). *)
  mem_bw_gbs : float;
  idle_w : float;
  active_w_per_core : float;
}

val power9 : cpu
val x86_server : cpu
val arm_edge : cpu
val riscv_endpoint : cpu

(** Peak flops of the whole CPU. *)
val cpu_peak_flops : cpu -> float

(** Roofline execution time on [threads] cores: max of compute time and
    memory-bandwidth time. *)
val cpu_time : cpu -> flops:float -> bytes:float -> threads:int -> float

(** How an FPGA attaches to its host (the Fig. 4 dichotomy). *)
type attachment = Bus_coherent | Network_attached

type fpga = {
  fpga_name : string;
  attach : attachment;
  luts : int;
  ffs : int;
  dsps : int;
  brams : int;
  clock_mhz : float;
  role_slots : int;  (** Shell-role: concurrent partial-reconfig regions. *)
  reconfig_s : float;  (** Partial reconfiguration time per role. *)
  hbm_bw_gbs : float;
  idle_w : float;
  active_w : float;
}

(** AD9V3-class card behind OpenCAPI (the POWER9 HELM platform). *)
val bus_fpga : fpga

(** cloudFPGA module: standalone on the DC network. *)
val cloud_fpga : fpga

val edge_fpga : fpga

(** Device area budget for {!Everest_hls.Estimate.fits}. *)
val fpga_budget : fpga -> Everest_hls.Estimate.area

(** Kernel execution time from its HLS estimate, rescaled to the device
    clock. *)
val fpga_kernel_time : fpga -> Everest_hls.Estimate.t -> float

type link = {
  link_name : string;
  latency_s : float;
  bandwidth_gbs : float;
  per_msg_s : float;  (** Protocol/software overhead per message. *)
}

val opencapi : link
val pcie3 : link
val eth100_tcp : link
val eth10_tcp : link
val eth10_udp : link
val wan : link

val transfer_time : link -> bytes:int -> float

(** The link a host reaches its FPGA over: {!opencapi} for a bus-attached
    card, {!eth100_tcp} for a network-attached module. *)
val host_link : fpga -> link

(** Processing tiers of the EVEREST ecosystem (Fig. 3). *)
type tier = Endpoint | Inner_edge | Cloud

val tier_name : tier -> string
