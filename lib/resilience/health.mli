(** Heartbeat monitoring on the Desim clock: node death (per a fault plan)
    is detected within one beat interval instead of only at task
    completion.  [stop] the monitor when the workload completes so the
    event queue can drain. *)

open Everest_platform

type event = Died | Recovered

type t

(** Start beating every [interval] simulated seconds; [on_event] fires on
    every liveness edge of a monitored node.
    @raise Invalid_argument on a non-positive interval. *)
val start :
  Desim.t ->
  faults:Faults.t ->
  interval:float ->
  nodes:string list ->
  on_event:(node:string -> event -> unit) ->
  t

(** Stop rescheduling; the pending beat becomes a no-op. *)
val stop : t -> unit

(** Is the node currently believed dead? *)
val is_down : t -> string -> bool
