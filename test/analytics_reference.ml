(* The list-based span-log analytics that the executor's fused report pass
   replaced, kept as a test oracle: the per-track grouping of the
   start-ordered log, the per-node utilization account with its interval
   merge, the per-task join of attempt spans into critical-path
   activities, and the backward walk over those activities.  Every step
   builds whole lists and hashtables, so it is exact by inspection and
   nowhere near fast; the report's critical path and utilization are
   checked against it. *)

module Trace = Everest_telemetry.Trace
open Everest_observe

(* ---- the span log, grouped -------------------------------------------------------- *)

(* Start order, ties broken by span id. *)
let start_order (a : Trace.span) (b : Trace.span) =
  if a.Trace.start_s < b.Trace.start_s then -1
  else if a.Trace.start_s > b.Trace.start_s then 1
  else compare a.Trace.id b.Trace.id

(* Track ids ascending, each with its spans in start order. *)
let tracks (sorted : Trace.span list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace tbl s.Trace.track
        (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.Trace.track)))
    (List.rev sorted);
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  |> List.map (fun k -> (k, Hashtbl.find tbl k))

let has_prefix p (s : Trace.span) = String.starts_with ~prefix:p s.Trace.name

(* ---- utilization ------------------------------------------------------------------ *)

(* Merge [(start, stop)] intervals (sorted by start) and clamp to
   [0, horizon]; returns (busy, gaps sorted by start). *)
let merge_intervals ~horizon ivals =
  let rec go busy gaps cursor = function
    | [] ->
        let busy, gaps =
          if horizon -. cursor > 0.0 then
            (busy, (cursor, horizon -. cursor) :: gaps)
          else (busy, gaps)
        in
        (busy, List.rev gaps)
    | (s, e) :: rest ->
        let s = Float.max 0.0 (Float.min s horizon) in
        let e = Float.max 0.0 (Float.min e horizon) in
        if e <= cursor then go busy gaps cursor rest
        else if s > cursor then
          go (busy +. (e -. Float.max s cursor)) ((cursor, s -. cursor) :: gaps)
            e rest
        else go (busy +. (e -. cursor)) gaps e rest
  in
  go 0.0 [] 0.0 ivals

let utilization ~horizon ~track_names ~waits ?(max_gaps = 3) sorted =
  let nodes =
    List.filter_map
      (fun (track, spans) ->
        let tasks = ref 0 and attempts = ref 0 in
        let span_s = ref 0.0 and xfer_s = ref 0.0 in
        let ivals = ref [] in
        let node_attr = ref None in
        List.iter
          (fun (s : Trace.span) ->
            if has_prefix "task:" s then begin
              incr attempts;
              if Trace.attr_string s "status" = Some "ok" then incr tasks;
              (match !node_attr with
              | None -> node_attr := Trace.attr_string s "node"
              | Some _ -> ());
              if Trace.finished s then begin
                span_s := !span_s +. Trace.duration s;
                ivals := (s.Trace.start_s, s.Trace.end_s) :: !ivals
              end
            end
            else if has_prefix "xfer:" s then
              xfer_s := !xfer_s +. Trace.duration s)
          spans;
        if !attempts = 0 then None
        else begin
          let busy, gaps = merge_intervals ~horizon (List.rev !ivals) in
          let node =
            match List.assoc_opt track track_names with
            | Some n -> n
            | None -> (
                match !node_attr with
                | Some n -> n
                | None -> Printf.sprintf "track%d" track)
          in
          let top_gaps =
            List.filteri
              (fun i _ -> i < max_gaps)
              (List.sort (fun (_, a) (_, b) -> compare b a) gaps)
          in
          Some
            { Utilization.nu_node = node; nu_track = track; nu_tasks = !tasks;
              nu_attempts = !attempts; nu_busy_s = busy; nu_span_s = !span_s;
              nu_xfer_s = !xfer_s;
              nu_wait_s = Option.value ~default:0.0 (List.assoc_opt node waits);
              nu_util = (if horizon > 0.0 then busy /. horizon else 0.0);
              nu_idle_s = Float.max 0.0 (horizon -. busy);
              nu_gaps = top_gaps }
        end)
      (tracks sorted)
  in
  { Utilization.u_horizon_s = horizon; u_nodes = nodes }

(* ---- critical path ---------------------------------------------------------------- *)

type activity = {
  act_id : int;
  act_name : string;
  act_node : string;
  act_start : float;
  act_finish : float;
  act_work_s : float;
  act_deps : int list;
}

(* The gating predecessor: latest finish, ties to the smaller id. *)
let later a b =
  if b.act_finish > a.act_finish
     || (b.act_finish = a.act_finish && b.act_id < a.act_id)
  then b
  else a

let assemble ~makespan_s ~total_work_s anchor chain =
  let head = List.hd chain in
  let steps =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, prev_end) a ->
              let seg = a.act_finish -. prev_end in
              let self = Float.min (Float.max 0.0 a.act_work_s) seg in
              ( { Critical_path.st_name = a.act_name; st_node = a.act_node;
                  st_start_s = a.act_start; st_finish_s = a.act_finish;
                  st_self_s = self; st_wait_s = seg -. self }
                :: acc,
                a.act_finish ))
            ([], head.act_start) chain))
  in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 steps in
  { Critical_path.steps;
    duration_s = anchor.act_finish -. head.act_start;
    work_s = sum (fun s -> s.Critical_path.st_self_s);
    wait_s = sum (fun s -> s.Critical_path.st_wait_s);
    makespan_s;
    total_work_s }

let extract acts =
  match acts with
  | [] -> None
  | first :: rest ->
      let by_id = Hashtbl.create (List.length acts) in
      List.iter (fun a -> Hashtbl.replace by_id a.act_id a) acts;
      let anchor = List.fold_left later first rest in
      let rec walk a path =
        let preds = List.filter_map (Hashtbl.find_opt by_id) a.act_deps in
        match preds with
        | [] -> a :: path
        | p :: ps -> walk (List.fold_left later p ps) (a :: path)
      in
      let makespan_s =
        List.fold_left (fun acc a -> Float.max acc a.act_finish) 0.0 acts
      in
      let total_work_s =
        List.fold_left (fun acc a -> acc +. a.act_work_s) 0.0 acts
      in
      Some (assemble ~makespan_s ~total_work_s anchor (walk anchor []))

(* The per-task join: attempt spans grouped by the task id they carry,
   the winner (last-started ok attempt, else last-started finished one)
   giving the work, minus the transfer time nested under it.  Activities
   come out in task-id order, the order the report sums total work in. *)
let activities ~finish ~deps ~name ~node sorted =
  let n = Array.length finish in
  let by_task = Array.make n [] in
  let xfer_under = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if has_prefix "task:" s then begin
        match Trace.attr_int s "task" with
        | Some i when i >= 0 && i < n -> by_task.(i) <- s :: by_task.(i)
        | _ -> ()
      end
      else if has_prefix "xfer:" s then
        match s.Trace.parent with
        | Some p ->
            Hashtbl.replace xfer_under p
              (Trace.duration s
              +. Option.value ~default:0.0 (Hashtbl.find_opt xfer_under p))
        | None -> ())
    sorted;
  let acts = ref [] in
  Array.iteri
    (fun i f ->
      match by_task.(i) with
      | spans when spans <> [] && f >= 0.0 ->
          let start =
            List.fold_left
              (fun acc (s : Trace.span) -> Float.min acc s.Trace.start_s)
              infinity spans
          in
          let winner =
            match
              List.find_opt
                (fun s -> Trace.attr_string s "status" = Some "ok")
                spans
            with
            | Some _ as w -> w
            | None -> List.find_opt Trace.finished spans
          in
          let work =
            match winner with
            | None -> 0.0
            | Some w ->
                let xfer =
                  Option.value ~default:0.0
                    (Hashtbl.find_opt xfer_under w.Trace.id)
                in
                Float.max 0.0 (Trace.duration w -. xfer)
          in
          let node =
            match Option.bind winner (fun w -> Trace.attr_string w "node") with
            | Some nd -> nd
            | None -> node i
          in
          acts :=
            { act_id = i; act_name = name i; act_node = node;
              act_start = start; act_finish = f; act_work_s = work;
              act_deps = deps i }
            :: !acts
      | _ -> ())
    finish;
  List.rev !acts

(* ---- the report's two analytics --------------------------------------------------- *)

(* Critical path and utilization of a span log, as the report states them:
   [finish] holds per-task completion times (negative when absent),
   [node i] is task [i]'s planned node, [waits] the per-node queueing
   time.  An empty log has neither. *)
let analyze ~horizon ~finish ~deps ~name ~node ~waits ~track_names spans =
  if spans = [] then (None, None)
  else
    let sorted = List.stable_sort start_order spans in
    ( extract (activities ~finish ~deps ~name ~node sorted),
      Some (utilization ~horizon ~track_names ~waits sorted) )
