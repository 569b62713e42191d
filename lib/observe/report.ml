(* The run report: everything the analytics layer derives from one run,
   in one value that renders as text, serializes to JSON and round-trips
   back for regression diffing.

   A report is *pulled*: the executor exposes it as a lazy field on its
   stats and nothing here executes until someone forces it, so runs that
   never ask for a report pay nothing. *)

type t = {
  r_name : string;  (* workload name ("stress", dag name, ...) *)
  r_policy : string;  (* scheduling policy the run used *)
  r_tasks_done : int;
  r_tasks_total : int;
  r_spans : int;  (* spans captured in the log *)
  r_dropped : int;  (* spans lost to the bounded sink *)
  r_makespan_s : float;
  r_cp : Critical_path.t option;  (* None when the log is empty/untraced *)
  r_util : Utilization.t option;
  r_quantiles : (string * float) list;  (* "p50_s" -> seconds, ... *)
  r_counters : (string * float) list;  (* retries, transfers, bytes, ... *)
  r_slos : Slo.result list;
}

let make ?(name = "run") ?(policy = "") ?(tasks_done = 0) ?(tasks_total = 0)
    ?(spans = 0) ?(dropped = 0) ?(makespan_s = 0.0) ?cp ?util
    ?(quantiles = []) ?(counters = []) ?(slos = []) () =
  { r_name = name; r_policy = policy; r_tasks_done = tasks_done;
    r_tasks_total = tasks_total; r_spans = spans; r_dropped = dropped;
    r_makespan_s = makespan_s; r_cp = cp; r_util = util;
    r_quantiles = quantiles; r_counters = counters; r_slos = slos }

(* ---- serialization -------------------------------------------------------------- *)

let pairs_to_json kvs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

let to_json t =
  Json.Obj
    [ ("name", Json.Str t.r_name); ("policy", Json.Str t.r_policy);
      ("tasks_done", Json.Num (float_of_int t.r_tasks_done));
      ("tasks_total", Json.Num (float_of_int t.r_tasks_total));
      ("spans", Json.Num (float_of_int t.r_spans));
      ("dropped", Json.Num (float_of_int t.r_dropped));
      ("makespan_s", Json.Num t.r_makespan_s);
      ("critical_path",
       match t.r_cp with Some cp -> Critical_path.to_json cp | None -> Json.Null);
      ("utilization",
       match t.r_util with Some u -> Utilization.to_json u | None -> Json.Null);
      ("quantiles", pairs_to_json t.r_quantiles);
      ("counters", pairs_to_json t.r_counters);
      ("slos", Json.Arr (List.map Slo.result_to_json t.r_slos)) ]

(* ---- rendering ------------------------------------------------------------------ *)

let pp ppf t =
  let line fmt = Fmt.pf ppf fmt in
  line "run report: %s%s@."
    t.r_name (if t.r_policy = "" then "" else " (policy " ^ t.r_policy ^ ")");
  line "  tasks      %d/%d done, %d spans (%d dropped), makespan %.4gs@."
    t.r_tasks_done t.r_tasks_total t.r_spans t.r_dropped t.r_makespan_s;
  (match t.r_cp with
  | None -> line "  critical path: (no trace)@."
  | Some cp ->
      line "  critical path: %d steps, %.4gs = self %.4gs + wait %.4gs@."
        (List.length cp.Critical_path.steps) cp.Critical_path.duration_s
        cp.Critical_path.work_s cp.Critical_path.wait_s;
      List.iter
        (fun (s : Critical_path.step) ->
          line "    %-24s %-10s self %8.4gs  wait %8.4gs@." s.st_name
            s.st_node s.st_self_s s.st_wait_s)
        (Critical_path.bottlenecks ~k:5 cp);
      List.iter
        (fun (node, (self, wait)) ->
          line "    node %-10s self %8.4gs  wait %8.4gs@." node self wait)
        (Critical_path.by_node cp));
  (match t.r_util with
  | None -> ()
  | Some u ->
      line "  utilization (horizon %.4gs):@." u.Utilization.u_horizon_s;
      List.iter
        (fun (n : Utilization.node_util) ->
          line
            "    %-10s %5.1f%%  busy %8.4gs  idle %8.4gs  wait %8.4gs  \
             %d tasks (%d attempts)@."
            n.nu_node (100.0 *. n.nu_util) n.nu_busy_s n.nu_idle_s n.nu_wait_s
            n.nu_tasks n.nu_attempts)
        u.Utilization.u_nodes;
      match Utilization.worst_gap u with
      | Some (node, at, len) when len > 0.0 ->
          line "    worst idle gap: %.4gs on %s at t=%.4gs@." len node at
      | _ -> ());
  if t.r_quantiles <> [] then begin
    line "  task latency:";
    List.iter (fun (k, v) -> line " %s=%.4gs" k v) t.r_quantiles;
    line "@."
  end;
  if t.r_counters <> [] then begin
    line "  counters:   ";
    List.iter (fun (k, v) -> line " %s=%.4g" k v) t.r_counters;
    line "@."
  end;
  List.iter (fun r -> line "  slo: %a@." Slo.pp_result r) t.r_slos

let render t = Fmt.str "%a" pp t
