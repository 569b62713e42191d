(* The critical path of a run with self-time vs. wait-time attribution:
   the record [Analyzer] extracts from a span log, its invariant, queries
   and serialization. *)

type step = {
  st_name : string;
  st_node : string;
  st_start_s : float;  (* the task's first attempt start *)
  st_finish_s : float;
  st_self_s : float;  (* executing, within this step's path segment *)
  st_wait_s : float;  (* the rest of the segment *)
}

type t = {
  steps : step list;  (* in execution order *)
  duration_s : float;  (* last finish - first start along the path *)
  work_s : float;  (* sum of per-step self time *)
  wait_s : float;  (* sum of per-step wait time *)
  makespan_s : float;  (* max finish over all tasks *)
  total_work_s : float;  (* sum of work over all tasks *)
}

(* Path time attributed per node, (self, wait) pairs, largest share first. *)
let by_node t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self, wait =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl s.st_node)
      in
      Hashtbl.replace tbl s.st_node (self +. s.st_self_s, wait +. s.st_wait_s))
    t.steps;
  Hashtbl.fold (fun node sw acc -> (node, sw) :: acc) tbl []
  |> List.sort (fun (_, (s1, w1)) (_, (s2, w2)) ->
         compare (s2 +. w2) (s1 +. w1))

(* The top-[k] path steps by share of the critical path (self + wait). *)
let bottlenecks ?(k = 5) t =
  let sorted =
    List.sort
      (fun a b ->
        compare (b.st_self_s +. b.st_wait_s) (a.st_self_s +. a.st_wait_s))
      t.steps
  in
  List.filteri (fun i _ -> i < k) sorted

(* The invariant every extraction must satisfy, to an absolute 1e-9 s. *)
let check t =
  let eps = 1e-9 in
  t.work_s <= t.duration_s +. eps
  && t.duration_s <= t.makespan_s +. eps
  && t.work_s <= t.total_work_s +. eps
  && List.for_all (fun s -> s.st_self_s >= 0.0 && s.st_wait_s >= 0.0) t.steps

(* ---- serialization -------------------------------------------------------------- *)

let step_to_json s =
  Json.Obj
    [ ("task", Json.Str s.st_name); ("node", Json.Str s.st_node);
      ("start_s", Json.Num s.st_start_s);
      ("finish_s", Json.Num s.st_finish_s);
      ("self_s", Json.Num s.st_self_s); ("wait_s", Json.Num s.st_wait_s) ]

let to_json t =
  Json.Obj
    [ ("duration_s", Json.Num t.duration_s); ("work_s", Json.Num t.work_s);
      ("wait_s", Json.Num t.wait_s); ("makespan_s", Json.Num t.makespan_s);
      ("total_work_s", Json.Num t.total_work_s);
      ("steps", Json.Arr (List.map step_to_json t.steps)) ]
