(* Operation scheduling: ASAP, ALAP and resource-constrained list scheduling
   (the core Bambu-style flow), plus initiation-interval computation for
   pipelined loop kernels. *)

type resources = {
  adders : int;
  multipliers : int;
  dividers : int;
  logic_units : int;
  mem_ports : int;  (* simultaneous accesses per array bank per cycle *)
}

let default_resources =
  { adders = 2; multipliers = 2; dividers = 1; logic_units = 2; mem_ports = 2 }

(* Cycle latencies per operation class (values typical of fmax-400MHz FPGA
   operators, matching Bambu's default characterization). *)
let latency = function
  | Cdfg.Add -> 1
  | Mul -> 3
  | Div -> 12
  | Logic -> 1
  | Load -> 2
  | Store -> 1
  | Const -> 0
  | Nop -> 0

let avail res = function
  | Cdfg.Add -> res.adders
  | Mul -> res.multipliers
  | Div -> res.dividers
  | Logic -> res.logic_units
  | Load | Store -> res.mem_ports
  | Const | Nop -> max_int

type t = {
  start : int array;  (* start cycle per node *)
  finish : int array;
  makespan : int;  (* total cycles *)
}

let asap (g : Cdfg.t) : t =
  let n = Cdfg.size g in
  let start = Array.make n 0 in
  let fin = Array.make n 0 in
  Array.iter
    (fun (nd : Cdfg.node) ->
      let ready =
        List.fold_left (fun m p -> max m fin.(p)) 0 nd.Cdfg.preds
      in
      start.(nd.Cdfg.id) <- ready;
      fin.(nd.Cdfg.id) <- ready + latency nd.Cdfg.cls)
    g.Cdfg.nodes;
  let makespan = Array.fold_left max 0 fin in
  { start; finish = fin; makespan }

let alap (g : Cdfg.t) ~deadline : t =
  let n = Cdfg.size g in
  let start = Array.make n max_int in
  let fin = Array.make n max_int in
  (* process in reverse topological (construction) order *)
  for i = n - 1 downto 0 do
    let nd = Cdfg.node g i in
    let succ_starts =
      List.filter_map
        (fun j ->
          let m = Cdfg.node g j in
          if List.mem i m.Cdfg.preds then Some start.(j) else None)
        (List.init n Fun.id)
    in
    let latest =
      List.fold_left min deadline succ_starts
    in
    fin.(i) <- latest;
    start.(i) <- latest - latency nd.Cdfg.cls
  done;
  { start; finish = fin; makespan = deadline }

(* Resource-constrained list scheduling with priority = ALAP slack. *)
let list_schedule ?(res = default_resources) (g : Cdfg.t) : t =
  let n = Cdfg.size g in
  let asap_s = asap g in
  let deadline = asap_s.makespan in
  let alap_s = alap g ~deadline in
  let slack i = alap_s.start.(i) - asap_s.start.(i) in
  let start = Array.make n (-1) in
  let fin = Array.make n (-1) in
  let scheduled = Array.make n false in
  let remaining = ref n in
  let cycle = ref 0 in
  (* Per-cycle usage: (class, cycle) -> used, and per-array port usage. *)
  let usage : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let used key = Option.value ~default:0 (Hashtbl.find_opt usage key) in
  let busy_key cls c = Printf.sprintf "%s@%d" (Cdfg.opclass_name cls) c in
  let port_key arr c = Printf.sprintf "%s#%d" arr c in
  while !remaining > 0 do
    let c = !cycle in
    (* ready nodes whose predecessors all finished by [c] *)
    let ready =
      Array.to_list g.Cdfg.nodes
      |> List.filter (fun (nd : Cdfg.node) ->
             (not scheduled.(nd.Cdfg.id))
             && List.for_all
                  (fun p -> scheduled.(p) && fin.(p) <= c)
                  nd.Cdfg.preds)
      |> List.sort (fun (a : Cdfg.node) b ->
             compare (slack a.Cdfg.id) (slack b.Cdfg.id))
    in
    List.iter
      (fun (nd : Cdfg.node) ->
        let cls = nd.Cdfg.cls in
        let lat = latency cls in
        (* occupancy: unpipelined Div blocks its unit for its full latency;
           others are pipelined (occupy issue slot only) *)
        let occupied_cycles = if cls = Div then lat else 1 in
        let fits =
          let fu_ok =
            List.for_all
              (fun dc -> used (busy_key cls (c + dc)) < avail res cls)
              (List.init occupied_cycles Fun.id)
          in
          let port_ok =
            match nd.Cdfg.array with
            | Some arr -> used (port_key arr c) < res.mem_ports
            | None -> true
          in
          fu_ok && port_ok
        in
        if fits then begin
          scheduled.(nd.Cdfg.id) <- true;
          start.(nd.Cdfg.id) <- c;
          fin.(nd.Cdfg.id) <- c + lat;
          decr remaining;
          List.iter
            (fun dc ->
              let k = busy_key cls (c + dc) in
              Hashtbl.replace usage k (used k + 1))
            (List.init occupied_cycles Fun.id);
          match nd.Cdfg.array with
          | Some arr ->
              let k = port_key arr c in
              Hashtbl.replace usage k (used k + 1)
          | None -> ()
        end)
      ready;
    incr cycle;
    if !cycle > 10_000_000 then failwith "list_schedule: runaway"
  done;
  let makespan = Array.fold_left max 0 fin in
  { start; finish = fin; makespan }

let cdiv a b =
  if b = 0 || b = max_int then if a > 0 && b = 0 then max_int else 1
  else (a + b - 1) / b

(* Functional-unit-constrained minimum initiation interval (memory system
   excluded — the partitioner computes that part when banking applies). *)
let fu_min_ii ?(res = default_resources) (g : Cdfg.t) =
  List.fold_left
    (fun m cls ->
      let pop = Cdfg.count_class g cls in
      let units = avail res cls in
      if pop = 0 then m else max m (cdiv pop units))
    1
    [ Cdfg.Add; Mul; Div; Logic ]

(* Memory-port-constrained II for unpartitioned (single-bank) arrays. *)
let mem_min_ii ?(res = default_resources) (g : Cdfg.t) =
  List.fold_left
    (fun m (arr, _) ->
      let accesses =
        Array.fold_left
          (fun acc (nd : Cdfg.node) ->
            if nd.Cdfg.array = Some arr then acc + 1 else acc)
          0 g.Cdfg.nodes
      in
      if accesses = 0 then m else max m (cdiv accesses res.mem_ports))
    1 g.Cdfg.arrays

let validate (g : Cdfg.t) (s : t) ~res =
  let ok_deps =
    Array.for_all
      (fun (nd : Cdfg.node) ->
        List.for_all (fun p -> s.finish.(p) <= s.start.(nd.Cdfg.id)) nd.Cdfg.preds)
      g.Cdfg.nodes
  in
  let ok_res =
    let usage = Hashtbl.create 64 in
    Array.for_all
      (fun (nd : Cdfg.node) ->
        let cls = nd.Cdfg.cls in
        if cls = Cdfg.Const || cls = Cdfg.Nop then true
        else begin
          let k = (Cdfg.opclass_name cls, s.start.(nd.Cdfg.id)) in
          let u = Option.value ~default:0 (Hashtbl.find_opt usage k) in
          Hashtbl.replace usage k (u + 1);
          u + 1 <= avail res cls
        end)
      g.Cdfg.nodes
  in
  ok_deps && ok_res
