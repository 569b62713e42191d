(* The mARGOt decision core: select the operating point that satisfies the
   constraints (relaxing the least-important ones when infeasible) and
   optimizes the rank objective, restricted to the feature cluster nearest
   to the current input. *)

type decision = {
  point : Knowledge.point;
  relaxed : Goal.constr list;  (* constraints that had to be dropped *)
}

(* Filter by constraints with priority-aware relaxation: drop constraints
   from least-important (highest priority number) to most-important until
   the candidate set is non-empty. *)
let rec feasible_set candidates (constraints : Goal.constr list) relaxed =
  let ok =
    List.filter
      (fun p -> List.for_all (Goal.satisfies p) constraints)
      candidates
  in
  if ok <> [] || constraints = [] then (ok, relaxed)
  else
    let worst =
      List.fold_left
        (fun acc c ->
          match acc with
          | Some (w : Goal.constr) when w.Goal.priority >= c.Goal.priority -> acc
          | _ -> Some c)
        None constraints
    in
    match worst with
    | None -> (candidates, relaxed)
    | Some w ->
        feasible_set candidates
          (List.filter (fun c -> c != w) constraints)
          (w :: relaxed)

let select (k : Knowledge.t) (g : Goal.t) ~features : decision option =
  let cluster = Knowledge.nearest_cluster k ~features in
  if cluster = [] then None
  else
    let candidates, relaxed = feasible_set cluster g.Goal.constraints [] in
    let candidates = if candidates = [] then cluster else candidates in
    let best =
      List.fold_left
        (fun acc p ->
          let s = Goal.score g p in
          match acc with
          | Some (bs, _) when bs <= s -> acc
          | _ -> Some (s, p))
        None candidates
    in
    Option.map (fun (_, p) -> { point = p; relaxed = List.rev relaxed }) best
