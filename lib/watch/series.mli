(** Fixed-capacity time series: one ring of the newest [capacity] raw
    [(t, v)] samples, in time order.  Time is caller-supplied, so series
    built over a simulated clock are deterministic. *)

type t

val create :
  ?capacity:int -> name:string -> labels:(string * string) list -> unit -> t

val name : t -> string

(** Sorted by key, duplicates dropped. *)
val labels : t -> (string * string) list

(** Raw observations ever recorded (not bounded by capacity). *)
val samples : t -> int

(** @raise Invalid_argument when [t] precedes the newest sample. *)
val observe : t -> t:float -> float -> unit

(** The newest [(t, v)], when any sample was ever observed. *)
val latest : t -> (float * float) option

(** The kept samples, oldest first. *)
val to_list : t -> (float * float) list

(** A collection of series keyed by (name × labels) with deterministic
    sorted iteration. *)
module Store : sig
  type series = t
  type t

  (** [capacity] applies to every series the store creates. *)
  val create : ?capacity:int -> unit -> t

  (** Get or create. *)
  val series : t -> name:string -> labels:(string * string) list -> series

  val find : t -> name:string -> labels:(string * string) list -> series option
  val observe :
    t -> now:float -> name:string -> labels:(string * string) list -> float -> unit

  (** All series, sorted by (name, labels). *)
  val to_list : t -> series list

  val size : t -> int
end
