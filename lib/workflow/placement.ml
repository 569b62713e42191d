(* Distributed data allocation (§IV item 4: "the available techniques for
   data management (e.g., data representations and distributed allocation)"
   and §II: "move the computation closer to the data").

   Given a scheduled plan, every task output has a home node (where it was
   produced) and a set of consumer nodes.  This optimizer decides, per data
   object, whether to

     - keep it at the producer (consumers pull on demand),
     - push one replica to a hub node all consumers read from, or
     - replicate to every consumer ahead of time,

   by comparing modeled transfer costs on the actual cluster links.  The
   replication decision matters for read-hot objects consumed across slow
   links (e.g. an ensemble dataset fanned out to many nodes). *)

open Everest_platform

type decision =
  | Keep_at_producer
  | Hub of string  (* stage one copy at this node *)
  | Replicate_to_consumers

type allocation = {
  task_id : int;
  bytes : int;
  producer : string;
  consumers : string list;  (* node names, deduplicated *)
  decision : decision;
  pull_cost_s : float;  (* cost of the naive strategy *)
  chosen_cost_s : float;
}

(* Cost of consumers pulling straight from the producer.  Pulls to the same
   node are free. *)
let pull_cost (c : Cluster.t) ~producer ~consumers ~bytes =
  let src = Cluster.find_node c producer in
  List.fold_left
    (fun acc name ->
      let dst = Cluster.find_node c name in
      acc +. Cluster.transfer_time c ~src ~dst ~bytes)
    0.0 consumers

(* Cost of staging one copy at [hub], consumers pulling from there. *)
let hub_cost (c : Cluster.t) ~producer ~consumers ~bytes hub =
  let src = Cluster.find_node c producer in
  let h = Cluster.find_node c hub in
  Cluster.transfer_time c ~src ~dst:h ~bytes
  +. List.fold_left
       (fun acc name ->
         let dst = Cluster.find_node c name in
         acc +. Cluster.transfer_time c ~src:h ~dst ~bytes)
       0.0 consumers

let decide (c : Cluster.t) ~producer ~consumers ~bytes : decision * float * float =
  let naive = pull_cost c ~producer ~consumers ~bytes in
  (* candidate hubs: any consumer node (staging where the data is used) *)
  let best_hub =
    List.fold_left
      (fun acc hub ->
        let cost = hub_cost c ~producer ~consumers ~bytes hub in
        match acc with
        | Some (_, best) when best <= cost -> acc
        | _ -> Some (hub, cost))
      None consumers
  in
  (* replication = the hub strategy with every consumer its own hub; with
     our link model that equals the naive pull cost, so it wins only via
     overlap — model it as the max (parallel pushes) plus the initial copy *)
  let replicate =
    match consumers with
    | [] -> infinity
    | _ ->
        let src = Cluster.find_node c producer in
        List.fold_left
          (fun m name ->
            let dst = Cluster.find_node c name in
            Float.max m (Cluster.transfer_time c ~src ~dst ~bytes))
          0.0 consumers
  in
  let candidates =
    (Keep_at_producer, naive)
    :: (Replicate_to_consumers, replicate)
    :: (match best_hub with Some (h, cost) -> [ (Hub h, cost) ] | None -> [])
  in
  let d, cost =
    List.fold_left
      (fun (bd, bc) (d, c) -> if c < bc then (d, c) else (bd, bc))
      (Keep_at_producer, naive) candidates
  in
  (d, naive, cost)

(* Allocate every task output of a plan. *)
let optimize (c : Cluster.t) (plan : Scheduler.plan) : allocation list =
  let dag = plan.Scheduler.dag in
  Array.to_list dag.Dag.tasks
  |> List.filter_map (fun (t : Dag.task) ->
         let consumers =
           Dag.consumers dag t.Dag.id
           |> List.map (fun i -> plan.Scheduler.assignments.(i).Scheduler.node)
           |> List.sort_uniq compare
         in
         if consumers = [] then None
         else
           let producer = plan.Scheduler.assignments.(t.Dag.id).Scheduler.node in
           let decision, pull, chosen =
             decide c ~producer ~consumers ~bytes:t.Dag.out_bytes
           in
           Some
             { task_id = t.Dag.id; bytes = t.Dag.out_bytes; producer;
               consumers; decision; pull_cost_s = pull; chosen_cost_s = chosen })

let total_pull allocs = List.fold_left (fun a x -> a +. x.pull_cost_s) 0.0 allocs

let total_chosen allocs =
  List.fold_left (fun a x -> a +. x.chosen_cost_s) 0.0 allocs

(* Modeled saving of the optimized allocation over naive pulls. *)
let saving allocs =
  let p = total_pull allocs in
  if p <= 0.0 then 0.0 else (p -. total_chosen allocs) /. p
