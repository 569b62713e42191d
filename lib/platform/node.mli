(** Simulated compute nodes: CPUs with core contention, FPGAs with
    shell-role slots and partial reconfiguration, and per-node energy
    accounting. *)

type fpga_dev = {
  fspec : Spec.fpga;
  dev_id : int;
  slots : Desim.resource;
  mutable loaded : (int * string) list;  (** Slot index -> bitstream name. *)
  mutable next_slot : int;
  mutable reconfigs : int;
  mutable f_busy_s : float;
}

type t = {
  name : string;
  tier : Spec.tier;
  cpu : Spec.cpu;
  cores : Desim.resource;
  fpgas : fpga_dev list;
  mutable energy_j : float;  (** Active energy; idle added by {!total_energy}. *)
  mutable tasks_run : int;
}

val create : ?fpgas:Spec.fpga list -> name:string -> tier:Spec.tier -> Spec.cpu -> t
val has_fpga : t -> bool

(** Acquire [n] units, then run the continuation. *)
val acquire_n : Desim.t -> Desim.resource -> int -> (unit -> unit) -> unit

val release_n : Desim.t -> Desim.resource -> int -> unit

(** Run a software kernel on up to [threads] cores; the continuation runs at
    completion. *)
val run_cpu :
  Desim.t ->
  t ->
  flops:float ->
  bytes:float ->
  ?threads:int ->
  (unit -> unit) ->
  unit

(** Least-busy FPGA device of a node. *)
val pick_device : t -> fpga_dev option

(** Install a bitstream into a role slot without simulated delay
    (deployment-time configuration). *)
val preload : fpga_dev -> bitstream:string -> unit

(** Ensure the bitstream occupies a role slot, paying reconfiguration time
    when absent (round-robin eviction). *)
val ensure_loaded : Desim.t -> fpga_dev -> bitstream:string -> (unit -> unit) -> unit

(** Execute a synthesized kernel: waits for a role slot, loads the
    bitstream if needed, transfers data over [host_link], runs for the
    estimated time, transfers back. *)
val run_fpga :
  Desim.t ->
  t ->
  fpga_dev ->
  bitstream:string ->
  estimate:Everest_hls.Estimate.t ->
  host_link:Spec.link ->
  in_bytes:int ->
  out_bytes:int ->
  (unit -> unit) ->
  unit

(** Active energy plus the idle floor over [elapsed] seconds. *)
val total_energy : t -> elapsed:float -> float
