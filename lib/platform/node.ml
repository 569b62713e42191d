(* Simulated compute nodes: CPUs with core contention, FPGAs with shell-role
   slots and partial reconfiguration, and per-node energy accounting. *)

type fpga_dev = {
  fspec : Spec.fpga;
  dev_id : int;
  slots : Desim.resource;
  mutable loaded : (int * string) list;  (* slot index -> bitstream name *)
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
  mutable energy_j : float;  (* active energy; idle added at teardown *)
  mutable tasks_run : int;
}

let create ?(fpgas = []) ~name ~tier (cpu : Spec.cpu) : t =
  {
    name; tier; cpu;
    cores = Desim.resource (name ^ ".cores") cpu.Spec.cores;
    fpgas =
      List.mapi
        (fun i (f : Spec.fpga) ->
          { fspec = f; dev_id = i;
            slots = Desim.resource (Printf.sprintf "%s.fpga%d" name i) f.Spec.role_slots;
            loaded = []; next_slot = 0; reconfigs = 0; f_busy_s = 0.0 })
        fpgas;
    energy_j = 0.0; tasks_run = 0;
  }

let has_fpga n = n.fpgas <> []

(* Acquire [n] units of a resource, then run [k]; releases are the caller's
   responsibility via [release_n]. *)
let rec acquire_n sim r n k =
  if n <= 0 then k ()
  else Desim.acquire sim r (fun () -> acquire_n sim r (n - 1) k)

let rec release_n sim r n =
  if n > 0 then begin
    Desim.release sim r;
    release_n sim r (n - 1)
  end

(* Run a software kernel on [threads] cores; calls [k] at completion. *)
let run_cpu sim (node : t) ~flops ~bytes ?(threads = 1) k =
  let threads = max 1 (min threads node.cpu.Spec.cores) in
  acquire_n sim node.cores threads (fun () ->
      let dt = Spec.cpu_time node.cpu ~flops ~bytes ~threads in
      Desim.schedule sim dt (fun () ->
          node.energy_j <-
            node.energy_j
            +. dt *. float_of_int threads *. node.cpu.Spec.active_w_per_core;
          node.tasks_run <- node.tasks_run + 1;
          release_n sim node.cores threads;
          k ()))

(* Ensure [bitstream] occupies a role slot of [dev]; reconfigures (evicting
   round-robin) when absent.  Continues with [k] once resident. *)
let ensure_loaded sim (dev : fpga_dev) ~bitstream k =
  if List.exists (fun (_, b) -> String.equal b bitstream) dev.loaded then k ()
  else begin
    let slot = dev.next_slot mod dev.fspec.Spec.role_slots in
    dev.next_slot <- dev.next_slot + 1;
    dev.loaded <-
      (slot, bitstream) :: List.remove_assoc slot dev.loaded;
    dev.reconfigs <- dev.reconfigs + 1;
    Desim.schedule sim dev.fspec.Spec.reconfig_s k
  end

(* Least-busy FPGA device of a node (fewest slots in use or queued). *)
let pick_device (node : t) =
  match node.fpgas with
  | [] -> None
  | d :: rest ->
      Some
        (List.fold_left
           (fun best dev ->
             let load (d : fpga_dev) =
               Desim.in_use d.slots + Desim.queue_length d.slots
             in
             if load dev < load best then dev else best)
           d rest)

(* Install [bitstream] into a role slot without simulated delay: deployment-
   time configuration of pre-defined hardware resources. *)
let preload (dev : fpga_dev) ~bitstream =
  if not (List.exists (fun (_, b) -> String.equal b bitstream) dev.loaded) then begin
    let slot = dev.next_slot mod dev.fspec.Spec.role_slots in
    dev.next_slot <- dev.next_slot + 1;
    dev.loaded <- (slot, bitstream) :: List.remove_assoc slot dev.loaded
  end

(* Execute a synthesized kernel on an FPGA device.  [host_link] is the
   attachment used for data movement (OpenCAPI for bus FPGAs, Ethernet for
   cloudFPGA).  Input/output transfers bracket the kernel execution. *)
let run_fpga sim (node : t) (dev : fpga_dev) ~bitstream
    ~(estimate : Everest_hls.Estimate.t) ~host_link ~in_bytes ~out_bytes k =
  Desim.acquire sim dev.slots (fun () ->
      ensure_loaded sim dev ~bitstream (fun () ->
          let t_in = Spec.transfer_time host_link ~bytes:in_bytes in
          let t_exec = Spec.fpga_kernel_time dev.fspec estimate in
          let t_out = Spec.transfer_time host_link ~bytes:out_bytes in
          let dt = t_in +. t_exec +. t_out in
          Desim.schedule sim dt (fun () ->
              dev.f_busy_s <- dev.f_busy_s +. dt;
              node.energy_j <-
                node.energy_j
                +. (t_exec *. estimate.Everest_hls.Estimate.dynamic_power_w)
                +. ((t_in +. t_out) *. 0.2 *. dev.fspec.Spec.active_w);
              node.tasks_run <- node.tasks_run + 1;
              Desim.release sim dev.slots;
              k ())))

(* Total energy including idle floor over [elapsed] seconds. *)
let total_energy (node : t) ~elapsed =
  let idle =
    (node.cpu.Spec.idle_w *. elapsed)
    +. List.fold_left
         (fun acc d -> acc +. (d.fspec.Spec.idle_w *. elapsed))
         0.0 node.fpgas
  in
  node.energy_j +. idle
