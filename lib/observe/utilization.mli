(** Per-node busy/idle timelines derived from a span log by
    {!Analyzer.analyze}.

    One render track is one node's complete activity record (the executor
    records every execution attempt as a ["task:…"] span and every
    transfer as an ["xfer:…"] span on the node's track).  Busy time is the
    union of the task-span intervals — overlapping speculative attempts
    are merged, not double counted — and everything else up to the horizon
    is idle, reported as gaps. *)

type node_util = {
  nu_node : string;
  nu_track : int;
  nu_tasks : int;  (** First completions (status ["ok"]) on the node. *)
  nu_attempts : int;  (** Task spans, including retries and speculation. *)
  nu_busy_s : float;  (** Merged task-span time. *)
  nu_span_s : float;  (** Unmerged task-span sum (>= busy). *)
  nu_xfer_s : float;  (** Transfer-span sum. *)
  nu_wait_s : float;  (** Desim queueing time, when supplied. *)
  nu_util : float;  (** busy / horizon. *)
  nu_idle_s : float;  (** horizon - busy. *)
  nu_gaps : (float * float) list;  (** Largest idle (start, length) first. *)
}

type t = { u_horizon_s : float; u_nodes : node_util list }

(** Invariants every extraction satisfies: busy within [0, span_s] and
    [0, horizon], busy + idle tiles the horizon, utilization in [0, 1], all
    to an absolute 1e-9. *)
val check : t -> bool

(** The longest idle gap across every node: (node, start, length). *)
val worst_gap : t -> (string * float * float) option

val node_to_json : node_util -> Json.t
val to_json : t -> Json.t
