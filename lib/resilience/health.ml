(* Heartbeat monitoring on the Desim clock.

   A monitor beats every [interval] simulated seconds, compares each node's
   liveness (per the fault plan) against its last known state and fires
   [on_event] on every edge — so node death is detected within one beat
   instead of only when a task completes on the dead node.

   The monitor must be [stop]ped when the workload completes: a pending beat
   checks the flag and declines to reschedule, letting the event queue
   drain. *)

open Everest_platform

type event = Died | Recovered

type t = {
  sim : Desim.t;
  faults : Faults.t;
  interval : float;
  nodes : string list;
  on_event : node:string -> event -> unit;
  mutable down : string list;  (* nodes currently believed dead *)
  mutable stopped : bool;
}

let is_down t node = List.exists (String.equal node) t.down

let check t =
  let now = Desim.now t.sim in
  List.iter
    (fun node ->
      let dead = Faults.node_dead t.faults ~node ~now in
      let marked = is_down t node in
      if dead && not marked then begin
        t.down <- node :: t.down;
        t.on_event ~node Died
      end
      else if (not dead) && marked then begin
        t.down <- List.filter (fun n -> not (String.equal n node)) t.down;
        t.on_event ~node Recovered
      end)
    t.nodes

let rec beat t () =
  if not t.stopped then begin
    check t;
    Desim.schedule t.sim t.interval (beat t)
  end

let start sim ~faults ~interval ~nodes ~on_event =
  if interval <= 0.0 then invalid_arg "Health.start: interval must be positive";
  let t =
    { sim; faults; interval; nodes; on_event; down = []; stopped = false }
  in
  Desim.schedule sim interval (beat t);
  t

let stop t = t.stopped <- true
