(** Virtual machines and the hypervisor layer (Fig. 2).

    VMs host application instances on a physical node; the hypervisor
    multiplexes cores, applies a virtualization overhead to guest compute,
    and exposes accelerators to guests through API remoting rather than raw
    device access. *)

open Everest_platform

type t = {
  vm_id : int;
  vm_name : string;
  vcpus : int;
  host : Node.t;
  overhead : float;  (** Multiplicative slowdown on guest compute. *)
  mutable running : bool;
  mutable guest_tasks : int;
}

type hypervisor = {
  hnode : Node.t;
  mutable vms : t list;
  mutable next_id : int;
  default_overhead : float;
}

val hypervisor : Node.t -> hypervisor
val vcpus_in_use : hypervisor -> int

exception Admission_failed of string

(** Admission control: vCPUs may not oversubscribe physical cores beyond
    2x.
    @raise Admission_failed when the limit would be exceeded. *)
val spawn : hypervisor -> name:string -> vcpus:int -> t

(** Guest compute: {!Node.run_cpu} paying the virtualization tax, capped at
    the VM's vCPUs.
    @raise Invalid_argument on stopped VMs. *)
val run_guest :
  Desim.t -> t -> flops:float -> bytes:float -> ?threads:int -> (unit -> unit) -> unit
