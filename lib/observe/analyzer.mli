(** The run analyzer: one pass over a span log yields the critical path and
    the per-node utilization account.

    The log is the executor's: one ["task:…"] span per execution attempt
    (attributes [task], [node], [status]) and one ["xfer:…"] child per
    transfer, on the executing node's render track.

    - Utilization: per track, busy time is the union of its task-span
      intervals clamped to [[0, horizon]]; the rest is idle, with the
      three largest gaps kept.
    - Critical path: per task, the winning attempt is the last-started ok
      one, else the last-started finished one; its duration minus the
      transfer time nested under it is the task's work.  The path walks
      back from the latest-finishing task through the latest-finishing
      present dependency (ties to the smaller id).  Per step, the segment
      since the previous finish splits into self time (bounded by the
      work) and wait time.

    The walk allocates per track and per path step, not per span, so it
    prices a 10⁶-span log inside the report's budget (E17). *)

(** [analyze ~horizon ~finish ~deps ~name ~node ~waits tracer] is
    [(critical path, utilization)], both [None] on an empty log.

    [finish.(i)] is task [i]'s completion time, negative when it did not
    complete; a task with no attempt span is absent too.  [deps], [name]
    and [node] are consulted only for tasks on the path; [node i] is the
    fallback when the winner's track names no node.  [waits] gives
    per-node queueing time; a track's node is its
    {!Everest_telemetry.Trace.named_tracks} name, else its spans' [node]
    attribute. *)
val analyze :
  horizon:float ->
  finish:float array ->
  deps:(int -> int list) ->
  name:(int -> string) ->
  node:(int -> string) ->
  waits:(string * float) list ->
  Everest_telemetry.Trace.t ->
  Critical_path.t option * Utilization.t option
