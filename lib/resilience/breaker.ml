(* Three-state circuit breaker (closed / open / half-open) over an external
   clock.

   Closed counts consecutive failures; at the threshold it opens and rejects
   every call.  After [cooldown_s] the next state query flips it to
   half-open, where a bounded number of probe calls is let through: one
   success closes the breaker, one failure re-opens it and restarts the
   cooldown.  Time is always passed in (~now) so the same breaker works on
   wall or simulated clocks. *)

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  failure_threshold : int;  (* consecutive failures that open the breaker *)
  cooldown_s : float;  (* open -> half-open delay *)
  half_open_probes : int;  (* concurrent probes allowed while half-open *)
}

let default_config =
  { failure_threshold = 3; cooldown_s = 0.05; half_open_probes = 1 }

type t = {
  config : config;
  mutable cur : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probes : int;  (* probes admitted in the current half-open phase *)
  mutable opens : int;  (* times the breaker has opened, ever *)
  mutable transitions : (float * state) list;  (* newest first *)
}

let create ?(config = default_config) () =
  if config.failure_threshold <= 0 then
    invalid_arg "Breaker.create: failure_threshold must be positive";
  if config.half_open_probes <= 0 then
    invalid_arg "Breaker.create: half_open_probes must be positive";
  { config; cur = Closed; consecutive_failures = 0; opened_at = neg_infinity;
    probes = 0; opens = 0; transitions = [] }

let transition b ~now s =
  if b.cur <> s then begin
    b.cur <- s;
    b.transitions <- (now, s) :: b.transitions
  end

(* Lazily promote open -> half-open once the cooldown has elapsed.

   Clocks are not guaranteed monotonic here: a breaker restored from a
   checkpoint, or shared across simulations, can observe [now] earlier
   than [opened_at].  Without the clamp the Open state would demand
   [opened_at + cooldown_s] of a clock that may never reach it (wedging
   the breaker open); re-basing the cooldown on the earlier clock keeps
   the contract "open for at most cooldown_s of observed time". *)
let state b ~now =
  (match b.cur with
  | Open when now < b.opened_at -> b.opened_at <- now
  | _ -> ());
  (match b.cur with
  | Open when now >= b.opened_at +. b.config.cooldown_s ->
      b.probes <- 0;
      transition b ~now Half_open
  | _ -> ());
  b.cur

let allow b ~now =
  match state b ~now with
  | Closed -> true
  | Open -> false
  | Half_open ->
      if b.probes < b.config.half_open_probes then begin
        b.probes <- b.probes + 1;
        true
      end
      else false

let trip b ~now =
  b.opened_at <- now;
  b.opens <- b.opens + 1;
  b.consecutive_failures <- 0;
  transition b ~now Open

let record b ~now ~ok =
  match state b ~now with
  | Closed ->
      if ok then b.consecutive_failures <- 0
      else begin
        b.consecutive_failures <- b.consecutive_failures + 1;
        if b.consecutive_failures >= b.config.failure_threshold then
          trip b ~now
      end
  | Half_open -> if ok then transition b ~now Closed else trip b ~now
  | Open -> ()  (* late result of a call admitted before the trip *)

let opens b = b.opens

(* Checkpoint/restore: the full mutable core, transitions oldest first. *)
type persisted = {
  p_state : state;
  p_failures : int;
  p_opened_at : float;
  p_probes : int;
  p_opens : int;
  p_transitions : (float * state) list;  (* oldest first *)
}

let export b =
  {
    p_state = b.cur;
    p_failures = b.consecutive_failures;
    p_opened_at = b.opened_at;
    p_probes = b.probes;
    p_opens = b.opens;
    p_transitions = List.rev b.transitions;
  }

let import b p =
  b.cur <- p.p_state;
  b.consecutive_failures <- p.p_failures;
  b.opened_at <- p.p_opened_at;
  b.probes <- p.p_probes;
  b.opens <- p.p_opens;
  b.transitions <- List.rev p.p_transitions
