(* A distributed EVEREST system: nodes in edge/inner-edge/cloud tiers joined
   by heterogeneous links (Fig. 3), with data transfer and placement.

   Link selection: an explicit entry in the topology wins; otherwise the
   default tier-to-tier links apply (endpoint<->inner-edge over 10GbE,
   inner-edge<->cloud over WAN, intra-cloud over 100GbE). *)

type t = {
  sim : Desim.t;
  nodes : Node.t list;
  node_tbl : (string, Node.t) Hashtbl.t;
  mutable links : (string * string * Spec.link) list;
  mutable bytes_moved : int;
  mutable transfers : int;
}

let create nodes =
  (* name -> node index built once: [find_node] sits on the executor's
     per-task hot path, where the historical list scan was O(|nodes|) per
     lookup.  First binding wins, matching the old [List.find_opt]. *)
  let node_tbl = Hashtbl.create (max 16 (List.length nodes)) in
  List.iter
    (fun (n : Node.t) ->
      if not (Hashtbl.mem node_tbl n.Node.name) then
        Hashtbl.add node_tbl n.Node.name n)
    nodes;
  { sim = Desim.create (); nodes; node_tbl; links = []; bytes_moved = 0;
    transfers = 0 }

let find_node c name =
  match Hashtbl.find_opt c.node_tbl name with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "cluster: unknown node %S" name)

let add_link c a b link = c.links <- (a, b, link) :: c.links

let default_link (a : Node.t) (b : Node.t) =
  match (a.Node.tier, b.Node.tier) with
  | Spec.Cloud, Spec.Cloud -> Spec.eth100_tcp
  | Spec.Endpoint, Spec.Inner_edge | Spec.Inner_edge, Spec.Endpoint ->
      Spec.eth10_udp
  | Spec.Endpoint, Spec.Endpoint -> Spec.eth10_udp
  | Spec.Inner_edge, Spec.Inner_edge -> Spec.eth10_tcp
  | Spec.Cloud, _ | _, Spec.Cloud -> Spec.wan

let link_between c (a : Node.t) (b : Node.t) =
  let pair (x, y, _) =
    (String.equal x a.Node.name && String.equal y b.Node.name)
    || (String.equal x b.Node.name && String.equal y a.Node.name)
  in
  match List.find_opt pair c.links with
  | Some (_, _, l) -> l
  | None -> default_link a b

(* Move [bytes] from [src] to [dst]; zero-cost when same node. *)
let transfer c ~(src : Node.t) ~(dst : Node.t) ~bytes k =
  if src == dst || String.equal src.Node.name dst.Node.name then k ()
  else begin
    let l = link_between c src dst in
    let dt = Spec.transfer_time l ~bytes in
    c.bytes_moved <- c.bytes_moved + bytes;
    c.transfers <- c.transfers + 1;
    Desim.schedule c.sim dt k
  end

let transfer_time c ~(src : Node.t) ~(dst : Node.t) ~bytes =
  if src == dst then 0.0
  else Spec.transfer_time (link_between c src dst) ~bytes

let run c = Desim.run c.sim
let elapsed c = Desim.now c.sim

let total_energy c =
  let e = elapsed c in
  List.fold_left (fun acc n -> acc +. Node.total_energy n ~elapsed:e) 0.0 c.nodes

(* Snapshot the whole system — engine counters, per-resource contention,
   transfer totals — into telemetry gauges. *)
let publish_metrics ?registry c =
  let module M = Everest_telemetry.Metrics in
  Desim.publish ?registry c.sim;
  List.iter
    (fun (n : Node.t) ->
      Desim.publish_resource ?registry n.Node.cores;
      List.iter
        (fun (d : Node.fpga_dev) -> Desim.publish_resource ?registry d.Node.slots)
        n.Node.fpgas)
    c.nodes;
  M.set (M.gauge ?registry "cluster_bytes_moved") (float_of_int c.bytes_moved);
  M.set (M.gauge ?registry "cluster_transfers") (float_of_int c.transfers)

(* ---- canonical EVEREST systems (Fig. 4) ----------------------------------------- *)

(* POWER9 node with two bus-attached (OpenCAPI) FPGAs. *)
let power9_node name =
  Node.create ~name ~tier:Spec.Cloud ~fpgas:[ Spec.bus_fpga; Spec.bus_fpga ] Spec.power9

(* A rack of disaggregated network-attached cloudFPGAs: each is a standalone
   node whose "CPU" is a negligible management core. *)
let cloudfpga_node name =
  Node.create ~name ~tier:Spec.Cloud ~fpgas:[ Spec.cloud_fpga ]
    { Spec.riscv_endpoint with Spec.cpu_name = "cFDK-shell" }

let edge_node name =
  Node.create ~name ~tier:Spec.Inner_edge ~fpgas:[ Spec.edge_fpga ] Spec.arm_edge

let endpoint_node name =
  Node.create ~name ~tier:Spec.Endpoint Spec.riscv_endpoint

(* The full EVEREST demonstrator: one POWER9 + bus FPGAs, a cloudFPGA rack,
   edge nodes and endpoints. *)
let everest_demonstrator ?(cloud_fpgas = 4) ?(edges = 2) ?(endpoints = 4) () =
  let p9 = power9_node "p9" in
  let cfs = List.init cloud_fpgas (fun i -> cloudfpga_node (Printf.sprintf "cf%d" i)) in
  let eds = List.init edges (fun i -> edge_node (Printf.sprintf "edge%d" i)) in
  let eps = List.init endpoints (fun i -> endpoint_node (Printf.sprintf "ep%d" i)) in
  let c = create ((p9 :: cfs) @ eds @ eps) in
  (* cloudFPGAs sit on the DC network close to the POWER9 host *)
  List.iter (fun (cf : Node.t) -> add_link c "p9" cf.Node.name Spec.eth100_tcp) cfs;
  c
