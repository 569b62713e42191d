(* Resource allocation and binding.

   Functional-unit binding packs scheduled operations of one class onto the
   fewest units via the left-edge algorithm on issue intervals; register
   binding does the same on value live ranges.  The result feeds the area
   estimator and the datapath generator. *)

type fu = { fu_id : int; fu_class : Cdfg.opclass; ops : int list }

type binding = {
  fus : fu list;
  registers : int;  (* minimum register count *)
  node_fu : (int * int) list;  (* node id -> fu id *)
}

(* Left-edge on intervals [(start, finish, node)]: returns rows (one per
   physical resource) of non-overlapping interval members. *)
let left_edge intervals =
  let sorted = List.sort compare intervals in
  let rows : (int ref * int list ref) list ref = ref [] in
  List.iter
    (fun (s, f, n) ->
      match List.find_opt (fun (last_f, _) -> !last_f <= s) !rows with
      | Some (last_f, ops) ->
          last_f := f;
          ops := n :: !ops
      | None -> rows := !rows @ [ (ref f, ref [ n ]) ])
    sorted;
  List.map (fun (_, ops) -> List.rev !ops) !rows

let bind (g : Cdfg.t) (s : Schedule.t) : binding =
  let classes = [ Cdfg.Add; Mul; Div; Logic; Load; Store ] in
  let fus = ref [] in
  let node_fu = ref [] in
  let next_fu = ref 0 in
  List.iter
    (fun cls ->
      let intervals =
        Array.to_list g.Cdfg.nodes
        |> List.filter_map (fun (n : Cdfg.node) ->
               if n.Cdfg.cls = cls then
                 let st = s.Schedule.start.(n.Cdfg.id) in
                 let occupancy = if cls = Cdfg.Div then Schedule.latency cls else 1 in
                 Some (st, st + occupancy, n.Cdfg.id)
               else None)
      in
      if intervals <> [] then
        let rows = left_edge intervals in
        List.iter
          (fun ops ->
            let id = !next_fu in
            incr next_fu;
            fus := { fu_id = id; fu_class = cls; ops } :: !fus;
            List.iter (fun n -> node_fu := (n, id) :: !node_fu) ops)
          rows)
    classes;
  (* register binding: live range of a value = def finish .. last use start *)
  let n = Cdfg.size g in
  let last_use = Array.make n (-1) in
  Array.iter
    (fun (nd : Cdfg.node) ->
      List.iter
        (fun p -> last_use.(p) <- max last_use.(p) s.Schedule.start.(nd.Cdfg.id))
        nd.Cdfg.preds)
    g.Cdfg.nodes;
  let reg_intervals =
    List.init n Fun.id
    |> List.filter_map (fun i ->
           if last_use.(i) > s.Schedule.finish.(i) then
             Some (s.Schedule.finish.(i), last_use.(i), i)
           else None)
  in
  let registers = List.length (left_edge reg_intervals) in
  { fus = List.rev !fus; registers; node_fu = !node_fu }

(* No two ops bound to one FU may overlap in time. *)
let validate (g : Cdfg.t) (s : Schedule.t) (b : binding) =
  List.for_all
    (fun f ->
      let intervals =
        List.map
          (fun n ->
            let st = s.Schedule.start.(n) in
            let occ = if (Cdfg.node g n).Cdfg.cls = Cdfg.Div then Schedule.latency Cdfg.Div else 1 in
            (st, st + occ))
          f.ops
        |> List.sort compare
      in
      let rec ok = function
        | (_, f1) :: ((s2, _) :: _ as rest) -> f1 <= s2 && ok rest
        | _ -> true
      in
      ok intervals)
    b.fus
