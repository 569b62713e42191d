(* Workflow schedulers: assignment of tasks to nodes (and implementation
   choice).  Baselines (round-robin, min-load) plus HEFT and the
   locality-aware scheduler that models HyperLoom's data-aware placement
   ("improve resource utilization and reduce the overall workflow processing
   time", paper §III-A).

   Scale engineering (e17): all policies run over a per-call memo that
   caches [exec_estimate] per (implementation × node) — the historical
   code recomputed it inside its eligibility filter, [avg_exec] and
   [eft_on] for every candidate node of every task — and the HEFT
   internals are array-based (node-indexed ready times, rank-sorted index
   array with an explicit id tie-break reproducing the old stable
   [List.sort]).  Every plan is bit-identical to the pre-memo
   implementation, which is kept as [heft_reference] and property-tested
   against.  [heft_delta] re-places only the downward cone of tasks hit by
   node death instead of recomputing the whole plan. *)

open Everest_platform

type assignment = { node : string; impl : Dag.impl }

type plan = {
  dag : Dag.t;
  assignments : assignment array;  (* indexed by task id *)
  policy : string;
}

(* Estimated execution time of [impl] on [node], ignoring queuing. *)
let exec_estimate (node : Node.t) (impl : Dag.impl) =
  match impl with
  | Dag.Cpu { flops; bytes; threads } ->
      Spec.cpu_time node.Node.cpu ~flops ~bytes ~threads
  | Dag.Fpga { estimate; in_bytes; out_bytes; _ } -> (
      match node.Node.fpgas with
      | [] -> infinity
      | dev :: _ ->
          let link = Spec.host_link dev.Node.fspec in
          Spec.fpga_kernel_time dev.Node.fspec estimate
          +. Spec.transfer_time link ~bytes:in_bytes
          +. Spec.transfer_time link ~bytes:out_bytes)

(* What an FPGA implementation runs as on a node without an FPGA: its HLS
   cycle count as flops on one host thread, moving its input and output.
   [exec_estimate] prices that placement at infinity, so no scheduler
   picks it, but a pin or a hand-made plan can. *)
let cpu_fallback (estimate : Everest_hls.Estimate.t) ~in_bytes ~out_bytes =
  Dag.Cpu
    { flops = float_of_int estimate.Everest_hls.Estimate.cycles *. 10.0;
      bytes = float_of_int (in_bytes + out_bytes);
      threads = 1 }

(* Best implementation for a node: fastest feasible. *)
let best_impl (node : Node.t) (t : Dag.task) =
  List.fold_left
    (fun acc impl ->
      let c = exec_estimate node impl in
      match acc with
      | Some (_, best) when best <= c -> acc
      | _ when c = infinity -> acc
      | _ -> Some (impl, c))
    None t.Dag.impls

let assign_or_fail t node =
  match best_impl node t with
  | Some (impl, _) -> { node = node.Node.name; impl }
  | None ->
      (* pinned node without a feasible impl: fall back to first impl *)
      { node = node.Node.name; impl = List.hd t.Dag.impls }

(* ---- estimate memo ---------------------------------------------------------------- *)

(* One per scheduling call: node array in cluster order, a name -> index
   table, and per-implementation cost rows (cost on every node, computed by
   the same [exec_estimate], so memoized plans are bit-identical). *)
type memo = {
  mm_cluster : Cluster.t;
  mm_nodes : Node.t array;
  mm_index : (string, int) Hashtbl.t;
  mm_costs : (Dag.impl, float array) Hashtbl.t;
}

let memo_of_nodes c nodes =
  let mm_nodes = Array.of_list nodes in
  let mm_index = Hashtbl.create (max 16 (Array.length mm_nodes)) in
  Array.iteri
    (fun i (n : Node.t) ->
      if not (Hashtbl.mem mm_index n.Node.name) then
        Hashtbl.add mm_index n.Node.name i)
    mm_nodes;
  { mm_cluster = c; mm_nodes; mm_index; mm_costs = Hashtbl.create 64 }

let memo_of_cluster (c : Cluster.t) = memo_of_nodes c c.Cluster.nodes

let impl_costs mm impl =
  match Hashtbl.find_opt mm.mm_costs impl with
  | Some row -> row
  | None ->
      let row = Array.map (fun n -> exec_estimate n impl) mm.mm_nodes in
      Hashtbl.add mm.mm_costs impl row;
      row

(* The task's impls paired with their cost rows — one memo lookup per impl
   per task instead of one [exec_estimate] per impl per candidate node. *)
let cost_rows mm (t : Dag.task) =
  List.map (fun impl -> (impl, impl_costs mm impl)) t.Dag.impls

(* Same fold as [best_impl], reading the memoized row. *)
let best_of_rows rows ni =
  List.fold_left
    (fun acc (impl, row) ->
      let c = row.(ni) in
      match acc with
      | Some (_, best) when best <= c -> acc
      | _ when c = infinity -> acc
      | _ -> Some (impl, c))
    None rows

let assign_of_rows mm rows ni (t : Dag.task) =
  let name = mm.mm_nodes.(ni).Node.name in
  match best_of_rows rows ni with
  | Some (impl, _) -> { node = name; impl }
  | None -> { node = name; impl = List.hd t.Dag.impls }

(* Pinned-node index; raises the cluster's own unknown-node error. *)
let pinned_index mm name =
  match Hashtbl.find_opt mm.mm_index name with
  | Some i -> i
  | None -> ignore (Cluster.find_node mm.mm_cluster name); -1

(* ---- round robin ------------------------------------------------------------------ *)

let round_robin (c : Cluster.t) (dag : Dag.t) : plan =
  let mm = memo_of_cluster c in
  let n_nodes = Array.length mm.mm_nodes in
  let all = Array.init n_nodes Fun.id in
  let scratch = Array.make (max 1 n_nodes) 0 in
  let counter = ref 0 in
  let assignments =
    Array.map
      (fun (t : Dag.task) ->
        let rows = cost_rows mm t in
        (* eligible node indices, in cluster order (the order the
           historical [List.filter] produced) *)
        let eligible, n_eligible =
          match t.Dag.pinned with
          | Some n ->
              scratch.(0) <- pinned_index mm n;
              (scratch, 1)
          | None ->
              let k = ref 0 in
              for ni = 0 to n_nodes - 1 do
                if best_of_rows rows ni <> None then begin
                  scratch.(!k) <- ni;
                  incr k
                end
              done;
              if !k = 0 then (all, n_nodes) else (scratch, !k)
        in
        let ni = eligible.(!counter mod n_eligible) in
        incr counter;
        assign_of_rows mm rows ni t)
      dag.Dag.tasks
  in
  { dag; assignments; policy = "round-robin" }

(* ---- min-load --------------------------------------------------------------------- *)

let min_load (c : Cluster.t) (dag : Dag.t) : plan =
  let mm = memo_of_cluster c in
  let n_nodes = Array.length mm.mm_nodes in
  let load = Array.make (max 1 n_nodes) 0.0 in
  let assignments =
    Array.map
      (fun (t : Dag.task) ->
        let rows = cost_rows mm t in
        let best = ref (-1) in
        (match t.Dag.pinned with
        | Some n -> best := pinned_index mm n
        | None ->
            for ni = 0 to n_nodes - 1 do
              if best_of_rows rows ni <> None then
                if !best < 0 || load.(ni) < load.(!best) then best := ni
            done;
            (* no feasible node anywhere: least-loaded of the whole
               cluster, like the historical fallback to [c.nodes] *)
            if !best < 0 then begin
              best := 0;
              for ni = 1 to n_nodes - 1 do
                if load.(ni) < load.(!best) then best := ni
              done
            end);
        let ni = !best in
        let a = assign_of_rows mm rows ni t in
        let cost =
          match best_of_rows rows ni with
          | Some (_, cost) -> cost
          | None -> (impl_costs mm a.impl).(ni)
        in
        load.(ni) <- load.(ni) +. cost;
        a)
      dag.Dag.tasks
  in
  { dag; assignments; policy = "min-load" }

(* ---- HEFT ------------------------------------------------------------------------- *)

(* representative DC link for the rank's average transfer cost *)
let avg_bw () = Spec.eth100_tcp.Spec.bandwidth_gbs *. 1e9

(* Mean best-impl cost across feasible nodes, summed in node order so the
   float result matches the historical [List.filter_map] + fold. *)
let avg_exec_of_rows n_nodes rows =
  let sum = ref 0.0 and k = ref 0 in
  for ni = 0 to n_nodes - 1 do
    match best_of_rows rows ni with
    | Some (_, cost) ->
        sum := !sum +. cost;
        incr k
    | None -> ()
  done;
  if !k = 0 then 1.0 else !sum /. float_of_int !k

(* Upward ranks: O(tasks + edges) over the cached reverse adjacency. *)
let upward_ranks mm (dag : Dag.t) =
  let n_tasks = Dag.size dag in
  let n_nodes = Array.length mm.mm_nodes in
  let avg_bw = avg_bw () in
  let rank = Array.make n_tasks 0.0 in
  for i = n_tasks - 1 downto 0 do
    let t = dag.Dag.tasks.(i) in
    let succ_part = ref 0.0 in
    let comm = float_of_int t.Dag.out_bytes /. avg_bw in
    Dag.iter_consumers dag i (fun s ->
        let v = comm +. rank.(s) in
        if v > !succ_part then succ_part := v);
    rank.(i) <- avg_exec_of_rows n_nodes (cost_rows mm t) +. !succ_part
  done;
  rank

(* Task ids by descending rank; ids break ties, reproducing the order the
   historical stable [List.sort] gave an ascending-id input. *)
let rank_order rank =
  let order = Array.init (Array.length rank) Fun.id in
  Array.sort
    (fun a b ->
      let c = compare rank.(b) rank.(a) in
      if c <> 0 then c else compare a b)
    order;
  order

let heft ?(locality_aware = false) ?(exclude = []) (c : Cluster.t)
    (dag : Dag.t) : plan =
  let nodes =
    if exclude = [] then c.Cluster.nodes
    else
      List.filter
        (fun (n : Node.t) -> not (List.mem n.Node.name exclude))
        c.Cluster.nodes
  in
  if nodes = [] then invalid_arg "heft: every node excluded";
  let mm = memo_of_nodes c nodes in
  let nodes = mm.mm_nodes in
  let n_nodes = Array.length nodes in
  let n_tasks = Dag.size dag in
  let avg_bw = avg_bw () in
  let rank = upward_ranks mm dag in
  let order = rank_order rank in
  let node_ready = Array.make n_nodes 0.0 in
  let task_finish = Array.make n_tasks 0.0 in
  let task_node = Array.make n_tasks (-1) in
  let assignments =
    Array.make n_tasks
      { node = ""; impl = Dag.Cpu { flops = 0.; bytes = 0.; threads = 1 } }
  in
  (* schedule in rank order, but dependencies always rank higher, so inputs
     are placed before consumers *)
  Array.iter
    (fun i ->
      let t = dag.Dag.tasks.(i) in
      let rows = cost_rows mm t in
      let eft_on ni =
        match best_of_rows rows ni with
        | None -> None
        | Some (impl, exec) ->
            let ready_node = node_ready.(ni) in
            let ready_data =
              List.fold_left
                (fun m d ->
                  let src = nodes.(task_node.(d)) in
                  let comm =
                    if locality_aware then
                      Cluster.transfer_time c ~src ~dst:nodes.(ni)
                        ~bytes:dag.Dag.tasks.(d).Dag.out_bytes
                    else if task_node.(d) = ni then 0.0
                    else
                      float_of_int dag.Dag.tasks.(d).Dag.out_bytes /. avg_bw
                  in
                  Float.max m (task_finish.(d) +. comm))
                0.0 t.Dag.inputs
            in
            let start = Float.max ready_node ready_data in
            Some (impl, start +. exec)
      in
      (* a task pinned to an excluded node is placed as [heft_delta]
         places one whose pin died: by EFT over the remaining nodes *)
      let pin =
        match t.Dag.pinned with
        | Some n when not (List.mem n exclude) -> pinned_index mm n
        | _ -> -1
      in
      let best = ref None in
      (let consider ni =
         match eft_on ni with
         | None -> ()
         | Some (impl, eft) -> (
             match !best with
             | Some (_, _, best_eft) when best_eft <= eft -> ()
             | _ -> best := Some (ni, impl, eft))
       in
       if pin >= 0 then consider pin
       else
         for ni = 0 to n_nodes - 1 do
           consider ni
         done);
      match !best with
      | Some (ni, impl, eft) ->
          assignments.(i) <- { node = nodes.(ni).Node.name; impl };
          task_finish.(i) <- eft;
          task_node.(i) <- ni;
          node_ready.(ni) <- eft
      | None ->
          (* nothing feasible: the pin, else the first node, with the
             task's first implementation *)
          let ni = if pin >= 0 then pin else 0 in
          assignments.(i) <- assign_of_rows mm rows ni t;
          task_node.(i) <- ni)
    order;
  { dag; assignments;
    policy = (if locality_aware then "heft-locality" else "heft") }

let locality (c : Cluster.t) (dag : Dag.t) : plan = heft ~locality_aware:true c dag

(* ---- incremental (delta) HEFT ----------------------------------------------------- *)

(* On node death, re-place only the affected downward cone: every task
   assigned to a dead node plus its transitive consumers (their input data
   moved, so their placement may no longer be best).  Unaffected tasks keep
   their assignment and are only replayed to rebuild node-ready/finish
   state in O(1) per task — the per-node EFT search runs for cone tasks
   only.  This is what lineage recovery needs at scale: node death touches
   a cone, not the whole 10⁶-task plan. *)
let heft_delta ?locality_aware (c : Cluster.t) (plan : plan)
    ~(dead : string list) : plan =
  let locality_aware =
    match locality_aware with
    | Some b -> b
    | None -> String.equal plan.policy "heft-locality"
  in
  let dag = plan.dag in
  let n_tasks = Dag.size dag in
  let is_dead name = List.exists (String.equal name) dead in
  let alive =
    List.filter (fun (n : Node.t) -> not (is_dead n.Node.name)) c.Cluster.nodes
  in
  if alive = [] then invalid_arg "heft_delta: every node dead";
  let mm = memo_of_nodes c alive in
  let nodes = mm.mm_nodes in
  let n_nodes = Array.length nodes in
  let avg_bw = avg_bw () in
  (* the cone: dead-node tasks, closed under consumers (edges only point
     forward, so one ascending pass suffices) *)
  let affected = Array.make n_tasks false in
  for i = 0 to n_tasks - 1 do
    if is_dead plan.assignments.(i).node then affected.(i) <- true;
    if affected.(i) then
      Dag.iter_consumers dag i (fun s -> affected.(s) <- true)
  done;
  let rank = upward_ranks mm dag in
  let order = rank_order rank in
  let node_ready = Array.make n_nodes 0.0 in
  let task_finish = Array.make n_tasks 0.0 in
  let task_node = Array.make n_tasks (-1) in
  let assignments = Array.copy plan.assignments in
  let moved = ref 0 in
  Array.iter
    (fun i ->
      let t = dag.Dag.tasks.(i) in
      let ready_data ni =
        List.fold_left
          (fun m d ->
            let comm =
              if locality_aware then
                Cluster.transfer_time c ~src:nodes.(task_node.(d))
                  ~dst:nodes.(ni)
                  ~bytes:dag.Dag.tasks.(d).Dag.out_bytes
              else if task_node.(d) = ni then 0.0
              else float_of_int dag.Dag.tasks.(d).Dag.out_bytes /. avg_bw
            in
            Float.max m (task_finish.(d) +. comm))
          0.0 t.Dag.inputs
      in
      let place ni impl exec =
        let eft = Float.max node_ready.(ni) (ready_data ni) +. exec in
        assignments.(i) <- { node = nodes.(ni).Node.name; impl };
        task_finish.(i) <- eft;
        task_node.(i) <- ni;
        node_ready.(ni) <- eft
      in
      if not affected.(i) then begin
        (* keep the assignment; replay to rebuild planner state *)
        let a = assignments.(i) in
        let ni =
          match Hashtbl.find_opt mm.mm_index a.node with
          | Some ni -> ni
          | None -> invalid_arg "heft_delta: unaffected task on a dead node"
        in
        place ni a.impl (impl_costs mm a.impl).(ni)
      end
      else begin
        incr moved;
        let rows = cost_rows mm t in
        let best = ref None in
        let consider ni =
          match best_of_rows rows ni with
          | None -> ()
          | Some (impl, exec) -> (
              let eft = Float.max node_ready.(ni) (ready_data ni) +. exec in
              match !best with
              | Some (_, _, _, best_eft) when best_eft <= eft -> ()
              | _ -> best := Some (ni, impl, exec, eft))
        in
        (match t.Dag.pinned with
        | Some n when not (is_dead n) -> consider (pinned_index mm n)
        | _ ->
            for ni = 0 to n_nodes - 1 do
              consider ni
            done);
        match !best with
        | Some (ni, impl, exec, _) -> place ni impl exec
        | None ->
            (* no feasible impl on any survivor: first alive node, first
               impl — the last resort full HEFT takes for an unpinned
               task *)
            place 0 (List.hd t.Dag.impls) (impl_costs mm (List.hd t.Dag.impls)).(0)
      end)
    order;
  ignore !moved;
  { dag; assignments; policy = plan.policy ^ "+delta" }

(* ---- pre-PR reference ------------------------------------------------------------- *)

(* The historical HEFT, verbatim: [Dag.consumers_naive] rebuilt per rank
   step (Θ(n²·deg)), [exec_estimate] recomputed per candidate node, list
   sort over [List.init].  Kept as the oracle the memoized scheduler is
   property-tested against, and as the quadratic baseline bench e17
   measures its speedup over. *)
let heft_reference ?(locality_aware = false) (c : Cluster.t) (dag : Dag.t) :
    plan =
  let nodes = c.Cluster.nodes in
  let n_tasks = Dag.size dag in
  let avg_exec (t : Dag.task) =
    let costs =
      List.filter_map (fun n -> Option.map snd (best_impl n t)) nodes
    in
    if costs = [] then 1.0
    else List.fold_left ( +. ) 0.0 costs /. float_of_int (List.length costs)
  in
  let avg_bw = Spec.eth100_tcp.Spec.bandwidth_gbs *. 1e9 in
  let rank = Array.make n_tasks 0.0 in
  for i = n_tasks - 1 downto 0 do
    let t = dag.Dag.tasks.(i) in
    let succ_part =
      List.fold_left
        (fun m s ->
          let comm = float_of_int t.Dag.out_bytes /. avg_bw in
          Float.max m (comm +. rank.(s)))
        0.0
        (Dag.consumers_naive dag i)
    in
    rank.(i) <- avg_exec t +. succ_part
  done;
  let order =
    List.sort (fun a b -> compare rank.(b) rank.(a)) (List.init n_tasks Fun.id)
  in
  let node_ready : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let task_finish = Array.make n_tasks 0.0 in
  let task_node = Array.make n_tasks "" in
  let assignments =
    Array.make n_tasks
      { node = ""; impl = Dag.Cpu { flops = 0.; bytes = 0.; threads = 1 } }
  in
  List.iter
    (fun i ->
      let t = dag.Dag.tasks.(i) in
      let candidates =
        match t.Dag.pinned with
        | Some n -> [ Cluster.find_node c n ]
        | None -> nodes
      in
      let eft_on (n : Node.t) =
        match best_impl n t with
        | None -> None
        | Some (impl, exec) ->
            let ready_node =
              Option.value ~default:0.0 (Hashtbl.find_opt node_ready n.Node.name)
            in
            let ready_data =
              List.fold_left
                (fun m d ->
                  let src = Cluster.find_node c task_node.(d) in
                  let comm =
                    if locality_aware then
                      Cluster.transfer_time c ~src ~dst:n
                        ~bytes:dag.Dag.tasks.(d).Dag.out_bytes
                    else if String.equal task_node.(d) n.Node.name then 0.0
                    else
                      float_of_int dag.Dag.tasks.(d).Dag.out_bytes /. avg_bw
                  in
                  Float.max m (task_finish.(d) +. comm))
                0.0 t.Dag.inputs
            in
            let start = Float.max ready_node ready_data in
            Some (impl, start +. exec)
      in
      let best =
        List.fold_left
          (fun acc n ->
            match eft_on n with
            | None -> acc
            | Some (impl, eft) -> (
                match acc with
                | Some (_, _, best_eft) when best_eft <= eft -> acc
                | _ -> Some (n, impl, eft)))
          None candidates
      in
      match best with
      | Some (n, impl, eft) ->
          assignments.(i) <- { node = n.Node.name; impl };
          task_finish.(i) <- eft;
          task_node.(i) <- n.Node.name;
          Hashtbl.replace node_ready n.Node.name eft
      | None ->
          (* the pin, else the first node *)
          let n = List.hd candidates in
          assignments.(i) <- assign_or_fail t n;
          task_node.(i) <- n.Node.name)
    order;
  { dag; assignments;
    policy = (if locality_aware then "heft-locality" else "heft") }

let by_name = function
  | "round-robin" -> Some round_robin
  | "min-load" -> Some min_load
  | "heft" -> Some (fun c dag -> heft ~locality_aware:false c dag)
  | "heft-locality" | "locality" -> Some locality
  | _ -> None
