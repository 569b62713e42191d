(* vFPGA manager (paper [33]): virtualizes physical FPGA role slots into
   per-VM virtual FPGA contexts with isolation.

   A VM acquires a vFPGA bound to one physical device; kernel launches go
   through the manager, which enforces that a VM only ever drives its own
   contexts (the shell/role privilege separation of cloudFPGA). *)

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
  mutable denied : int;  (* isolation violations blocked *)
}

let create () = { contexts = []; next_id = 0; denied = 0 }

exception No_fpga of string
exception Isolation_violation of string

let allocate mgr ~(vm : Vm.t) =
  match vm.Vm.host.Node.fpgas with
  | [] -> raise (No_fpga (vm.Vm.host.Node.name ^ " has no FPGA"))
  | devs ->
      (* least-loaded device on the host *)
      let dev =
        List.fold_left
          (fun best d ->
            let load dd =
              List.length
                (List.filter
                   (fun c -> c.dev == dd && not c.released)
                   mgr.contexts)
            in
            if load d < load best then d else best)
          (List.hd devs) (List.tl devs)
      in
      let ctx =
        { vf_id = mgr.next_id; owner_vm = vm.Vm.vm_id; dev; node = vm.Vm.host;
          launches = 0; released = false }
      in
      mgr.next_id <- mgr.next_id + 1;
      mgr.contexts <- ctx :: mgr.contexts;
      ctx

let release _mgr ctx = ctx.released <- true

(* Launch a kernel on a vFPGA on behalf of [vm].  Isolation: the caller must
   own the context. *)
let launch mgr sim ~(vm : Vm.t) ~(ctx : vctx) ~bitstream
    ~(estimate : Everest_hls.Estimate.t) ~in_bytes ~out_bytes k =
  if ctx.released then raise (Isolation_violation "launch on released vFPGA");
  if ctx.owner_vm <> vm.Vm.vm_id then begin
    mgr.denied <- mgr.denied + 1;
    raise
      (Isolation_violation
         (Printf.sprintf "vm %d attempted launch on vFPGA of vm %d" vm.Vm.vm_id
            ctx.owner_vm))
  end;
  Node.run_fpga sim ctx.node ctx.dev ~bitstream ~estimate
    ~host_link:(Spec.host_link ctx.dev.Node.fspec) ~in_bytes ~out_bytes
    (fun () ->
      ctx.launches <- ctx.launches + 1;
      k ())

let active_contexts mgr =
  List.length (List.filter (fun c -> not c.released) mgr.contexts)
