(* Per-node busy/idle timelines: the account [Analyzer] builds from a span
   log, its reconciliation check and serialization. *)

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

(* Reconciliation against the span log it was built from: merged busy time
   can never exceed the raw span sum or the horizon, busy + idle must tile
   the horizon, and utilization is a fraction (all to an absolute 1e-9). *)
let check t =
  let eps = 1e-9 in
  List.for_all
    (fun n ->
      n.nu_busy_s >= -.eps
      && n.nu_busy_s <= n.nu_span_s +. eps
      && n.nu_busy_s <= t.u_horizon_s +. eps
      && Float.abs (n.nu_busy_s +. n.nu_idle_s -. t.u_horizon_s) <= eps
      && n.nu_util >= -.eps
      && n.nu_util <= 1.0 +. eps)
    t.u_nodes

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
