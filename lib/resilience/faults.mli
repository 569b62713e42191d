(** Deterministic fault plans over the simulated clock.

    A plan is pure data — crash/restart windows and transient-failure
    probabilities — and every random verdict is
    derived by hashing the query key against the plan seed, never by
    consuming a shared stream.  The same (seed, task, attempt) always gets
    the same verdict, whatever order the executor asks in, which is what
    makes chaos runs bit-reproducible. *)

type window = {
  w_node : string;
  w_down : float;  (** The node dies at this simulated time. *)
  w_up : float option;  (** Restart time; [None] = permanent death. *)
}

type t = {
  seed : int;
  windows : window list;
  transient_prob : float;  (** Per-attempt transient failure probability. *)
  fpga_transient_prob : float;  (** Extra transient probability on FPGA runs. *)
}

(** The empty plan: nothing ever fails. *)
val none : t

(** @raise Invalid_argument when a probability is outside [0, 1). *)
val plan :
  ?seed:int ->
  ?windows:window list ->
  ?transient_prob:float ->
  ?fpga_transient_prob:float ->
  unit ->
  t

(** A kill list: each [(node, time)] pair becomes a permanent-death
    window.  [of_failures []] is {!none}. *)
val of_failures : (string * float) list -> t

(** Is [node] inside a down window at [now]? *)
val node_dead : t -> node:string -> now:float -> bool

(** Did [node] crash at any point in ([t0], [t1]]?  Outputs produced before
    a crash are lost even if the node restarted. *)
val down_between : t -> node:string -> t0:float -> t1:float -> bool

(** Deterministic transient-failure verdict for one execution attempt. *)
val transient : t -> task:int -> attempt:int -> bool

(** Deterministic FPGA-transient verdict for one execution attempt. *)
val fpga_transient : t -> task:int -> attempt:int -> bool

(** Derive a plan from a seed: each node crashes with probability
    [fault_rate] at a uniform time in [0, horizon), staying down for an
    exponential-ish [2 * U * mean_downtime] (permanently when
    [mean_downtime] is 0). *)
val random_plan :
  ?seed:int ->
  fault_rate:float ->
  ?mean_downtime:float ->
  ?transient_prob:float ->
  ?fpga_transient_prob:float ->
  nodes:string list ->
  horizon:float ->
  unit ->
  t
