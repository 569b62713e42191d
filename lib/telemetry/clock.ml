(* Time sources for telemetry.

   A clock is just a function returning "now" in seconds.  Tracing is
   parameterized over it so the same span machinery records either host wall
   time (compiler/DSE instrumentation) or Desim simulated time (executor and
   orchestrator instrumentation) — the EVEREST runtime adapts on *simulated*
   time, so its traces must be in that domain too. *)

type t = unit -> float

(* Host wall clock. *)
let wall : t = Unix.gettimeofday

(** Kept for tests: [manual], [advance] and [of_manual] make a clock that
    moves only when told, so span times are exact. *)
type manual = { mutable now_s : float }

let manual ?(start = 0.0) () = { now_s = start }
let advance m dt = m.now_s <- m.now_s +. dt
let of_manual m : t = fun () -> m.now_s
