(** Shortest-path routing: static Dijkstra and time-dependent Dijkstra over
    per-period link costs. *)

type path = { nodes : int list; links : int list; cost : float }

(** Dijkstra with a per-link cost; [None] when unreachable. *)
val shortest :
  Roadnet.t -> cost:(Roadnet.link -> float) -> src:int -> dst:int -> path option

(** Shortest path on free-flow times. *)
val free_flow : Roadnet.t -> src:int -> dst:int -> path option

(** Time-dependent Dijkstra: [period_of t] maps a clock time to a period
    index; [cost period l] gives the traversal time.  The returned cost is
    the trip duration from [depart].  Kept for PAPER.md §1's use case C row
    (time-dependent routing). *)
val time_dependent :
  Roadnet.t ->
  period_of:(float -> int) ->
  cost:(int -> Roadnet.link -> float) ->
  src:int ->
  dst:int ->
  depart:float ->
  path option
