(** vFPGA manager (paper ref [33]): virtualizes physical FPGA role slots
    into per-VM virtual FPGA contexts with tenant isolation (the shell/role
    privilege separation of cloudFPGA). *)

open Everest_platform

type vctx = {
  vf_id : int;
  owner_vm : int;
  dev : Node.fpga_dev;
  node : Node.t;
  mutable launches : int;
  mutable released : bool;
}

type t = {
  mutable contexts : vctx list;
  mutable next_id : int;
  mutable denied : int;  (** Isolation violations blocked. *)
}

val create : unit -> t

exception No_fpga of string
exception Isolation_violation of string

(** Allocate a context on the least-loaded device of the VM's host.
    @raise No_fpga when the host has none. *)
val allocate : t -> vm:Vm.t -> vctx

(** Kept for PAPER.md §1's vFPGA manager row (slot allocation). *)
val release : t -> vctx -> unit

(** Launch a kernel on a vFPGA on behalf of [vm]; the caller must own the
    context.
    @raise Isolation_violation on cross-tenant or released-context use. *)
val launch :
  t ->
  Desim.t ->
  vm:Vm.t ->
  ctx:vctx ->
  bitstream:string ->
  estimate:Everest_hls.Estimate.t ->
  in_bytes:int ->
  out_bytes:int ->
  (unit -> unit) ->
  unit

val active_contexts : t -> int
