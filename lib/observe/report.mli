(** The run report: everything the analytics layer derives from one run,
    in one value that renders as text, serializes to JSON and round-trips
    back for regression diffing ({!Regress}).

    A report is {e pulled}: the executor exposes it as a lazy field on its
    stats and nothing is computed until someone forces it.  Serialization
    prints floats deterministically, so identical runs produce
    byte-identical report JSON. *)

type t = {
  r_name : string;  (** Workload name ("stress", dag name, …). *)
  r_policy : string;  (** Scheduling policy the run used. *)
  r_tasks_done : int;
  r_tasks_total : int;
  r_spans : int;  (** Spans captured in the log. *)
  r_dropped : int;  (** Spans lost to the bounded sink. *)
  r_makespan_s : float;
  r_cp : Critical_path.t option;  (** [None] when the log is untraced. *)
  r_util : Utilization.t option;
  r_quantiles : (string * float) list;  (** ["p50_s"] -> seconds, … *)
  r_counters : (string * float) list;  (** Retries, transfers, bytes, … *)
  r_slos : Slo.result list;
}

val make :
  ?name:string ->
  ?policy:string ->
  ?tasks_done:int ->
  ?tasks_total:int ->
  ?spans:int ->
  ?dropped:int ->
  ?makespan_s:float ->
  ?cp:Critical_path.t ->
  ?util:Utilization.t ->
  ?quantiles:(string * float) list ->
  ?counters:(string * float) list ->
  ?slos:Slo.result list ->
  unit ->
  t

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
val render : t -> string
