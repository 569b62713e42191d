(** One alert lifecycle, shared by the {!Slo} burn-rate monitors and the
    watch rules: a level-triggered condition that fires on the first
    evaluation that holds, a count of rising edges, and the time the
    current firing began. *)

type t

val create : unit -> t

(** Feed the condition's level at [now]; true on a rising edge.  A
    condition that stops holding clears the alert. *)
val update : t -> now:float -> bool -> bool

val firing : t -> bool

(** Rising edges so far. *)
val edges : t -> int

(** When the current firing began; nan while not firing. *)
val since : t -> float

(** Overwrite firing and edges from a checkpoint.  [since] reads nan
    until the next rising edge. *)
val restore : t -> firing:bool -> edges:int -> unit
