(* Virtual machines and the hypervisor layer (Fig. 2).

   VMs host application instances on a physical node; the hypervisor
   multiplexes cores, applies a virtualization overhead to guest compute,
   and exposes accelerators to guests through API remoting (below) rather
   than raw device access. *)

open Everest_platform

type t = {
  vm_id : int;
  vm_name : string;
  vcpus : int;
  host : Node.t;
  overhead : float;  (* multiplicative slowdown on guest compute, e.g. 1.05 *)
  mutable running : bool;
  mutable guest_tasks : int;
}

type hypervisor = {
  hnode : Node.t;
  mutable vms : t list;
  mutable next_id : int;
  default_overhead : float;
}

let hypervisor node = { hnode = node; vms = []; next_id = 0; default_overhead = 1.05 }

let vcpus_in_use h =
  List.fold_left (fun acc vm -> if vm.running then acc + vm.vcpus else acc) 0 h.vms

exception Admission_failed of string

(* Admission control: vCPUs may not oversubscribe physical cores beyond 2x. *)
let spawn h ~name ~vcpus =
  let limit = 2 * h.hnode.Node.cpu.Spec.cores in
  if vcpus_in_use h + vcpus > limit then
    raise
      (Admission_failed
         (Printf.sprintf "vm %s: %d vCPUs exceed 2x oversubscription (%d in use, %d max)"
            name vcpus (vcpus_in_use h) limit));
  let vm =
    { vm_id = h.next_id; vm_name = name; vcpus; host = h.hnode;
      overhead = h.default_overhead; running = true; guest_tasks = 0 }
  in
  h.next_id <- h.next_id + 1;
  h.vms <- vm :: h.vms;
  vm


(* Guest compute: like Node.run_cpu but paying the virtualization tax and
   capped at the VM's vCPUs. *)
let run_guest sim (vm : t) ~flops ~bytes ?(threads = 1) k =
  if not vm.running then invalid_arg (vm.vm_name ^ ": stopped VM");
  let threads = max 1 (min threads vm.vcpus) in
  Node.run_cpu sim vm.host ~flops:(flops *. vm.overhead) ~bytes ~threads
    (fun () ->
      vm.guest_tasks <- vm.guest_tasks + 1;
      k ())
