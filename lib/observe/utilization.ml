(* Per-node busy/idle timelines from a span log.

   The executor records every execution attempt as a ["task:…"] span on the
   node's render track and every transfer as an ["xfer:…"] child on the
   same track, so one track is one node's complete activity record.  Busy
   time is the union of the track's task-span intervals (attempts overlap
   under speculation — merging avoids double counting); everything else up
   to the horizon is idle, reported as gaps so schedulers can see *where*
   a node sat unused, not just how much.  When the caller supplies Desim
   wait statistics the per-node queueing time rides along, reconciling the
   span-log account with the engine's own contention counters. *)

module Trace = Everest_telemetry.Trace

type node_util = {
  nu_node : string;
  nu_track : int;
  nu_tasks : int;  (* first completions (status="ok") on the node *)
  nu_attempts : int;  (* task spans, incl. retries and speculation *)
  nu_busy_s : float;  (* merged task-span time *)
  nu_span_s : float;  (* unmerged task-span sum (>= busy) *)
  nu_xfer_s : float;  (* transfer-span sum *)
  nu_wait_s : float;  (* Desim queueing time, when supplied *)
  nu_util : float;  (* busy / horizon *)
  nu_idle_s : float;  (* horizon - busy *)
  nu_gaps : (float * float) list;  (* largest idle (start, length) first *)
}

type t = { u_horizon_s : float; u_nodes : node_util list }

let has_prefix p (s : Trace.span) = String.starts_with ~prefix:p s.Trace.name

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

let of_span_dag ?horizon ?(track_names = []) ?(waits = []) ?(max_gaps = 3)
    (dag : Span_dag.t) : t =
  let horizon =
    match horizon with Some h -> h | None -> Span_dag.horizon dag
  in
  let nodes =
    List.filter_map
      (fun track ->
        (* one pass over the track's start-ordered spans gathers every
           per-node aggregate (the report builder runs under E15's
           <5%-of-run budget, so no intermediate filtered lists) *)
        let spans = Span_dag.track_spans dag track in
        let tasks = ref 0 and attempts = ref 0 in
        let span_s = ref 0.0 and xfer_s = ref 0.0 in
        let ivals = ref [] (* reversed start order *) in
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
                (* task spans carry the node as an attribute *)
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
            { nu_node = node; nu_track = track; nu_tasks = !tasks;
              nu_attempts = !attempts;
              nu_busy_s = busy; nu_span_s = !span_s; nu_xfer_s = !xfer_s;
              nu_wait_s = Option.value ~default:0.0 (List.assoc_opt node waits);
              nu_util = (if horizon > 0.0 then busy /. horizon else 0.0);
              nu_idle_s = Float.max 0.0 (horizon -. busy);
              nu_gaps = top_gaps }
        end)
      (Span_dag.tracks dag)
  in
  { u_horizon_s = horizon; u_nodes = nodes }

(* Reconciliation against the span log it was built from: merged busy time
   can never exceed the raw span sum or the horizon, busy + idle must tile
   the horizon, and utilization is a fraction. *)
let check ?(eps = 1e-9) t =
  List.for_all
    (fun n ->
      n.nu_busy_s >= -.eps
      && n.nu_busy_s <= n.nu_span_s +. eps
      && n.nu_busy_s <= t.u_horizon_s +. eps
      && Float.abs (n.nu_busy_s +. n.nu_idle_s -. t.u_horizon_s) <= eps
      && n.nu_util >= -.eps
      && n.nu_util <= 1.0 +. eps)
    t.u_nodes

let total_busy_s t =
  List.fold_left (fun acc n -> acc +. n.nu_busy_s) 0.0 t.u_nodes

(* The longest idle gap across every node: (node, start, length). *)
let worst_gap t =
  List.fold_left
    (fun acc n ->
      match n.nu_gaps with
      | (start, len) :: _ -> (
          match acc with
          | Some (_, _, best) when best >= len -> acc
          | _ -> Some (n.nu_node, start, len))
      | [] -> acc)
    None t.u_nodes

(* ---- serialization -------------------------------------------------------------- *)

let node_to_json n =
  Json.Obj
    [ ("node", Json.Str n.nu_node); ("track", Json.Num (float_of_int n.nu_track));
      ("tasks", Json.Num (float_of_int n.nu_tasks));
      ("attempts", Json.Num (float_of_int n.nu_attempts));
      ("busy_s", Json.Num n.nu_busy_s); ("span_s", Json.Num n.nu_span_s);
      ("xfer_s", Json.Num n.nu_xfer_s); ("wait_s", Json.Num n.nu_wait_s);
      ("util", Json.Num n.nu_util); ("idle_s", Json.Num n.nu_idle_s);
      ("gaps",
       Json.Arr
         (List.map
            (fun (s, l) ->
              Json.Obj [ ("start_s", Json.Num s); ("len_s", Json.Num l) ])
            n.nu_gaps)) ]

let to_json t =
  Json.Obj
    [ ("horizon_s", Json.Num t.u_horizon_s);
      ("nodes", Json.Arr (List.map node_to_json t.u_nodes)) ]

let node_of_json j =
  { nu_node = Json.need_str "node" j;
    nu_track = int_of_float (Json.need_num "track" j);
    nu_tasks = int_of_float (Json.need_num "tasks" j);
    nu_attempts = int_of_float (Json.need_num "attempts" j);
    nu_busy_s = Json.need_num "busy_s" j; nu_span_s = Json.need_num "span_s" j;
    nu_xfer_s = Json.need_num "xfer_s" j; nu_wait_s = Json.need_num "wait_s" j;
    nu_util = Json.need_num "util" j; nu_idle_s = Json.need_num "idle_s" j;
    nu_gaps =
      List.map
        (fun g -> (Json.need_num "start_s" g, Json.need_num "len_s" g))
        (Json.to_list (Json.need "gaps" j)) }

let of_json j =
  { u_horizon_s = Json.need_num "horizon_s" j;
    u_nodes = List.map node_of_json (Json.to_list (Json.need "nodes" j)) }
