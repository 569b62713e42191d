(** Operation scheduling: ASAP, ALAP and resource-constrained list
    scheduling (the core Bambu-style flow), plus initiation-interval
    computation for pipelined loop kernels. *)

(** Available functional units per class, and memory ports per array bank. *)
type resources = {
  adders : int;
  multipliers : int;
  dividers : int;
  logic_units : int;
  mem_ports : int;
}

val default_resources : resources

(** Cycle latency per operation class (Bambu-like characterization). *)
val latency : Cdfg.opclass -> int

val avail : resources -> Cdfg.opclass -> int

type t = {
  start : int array;  (** Start cycle per node. *)
  finish : int array;
  makespan : int;
}

(** Unconstrained as-soon-as-possible schedule. *)
val asap : Cdfg.t -> t

(** As-late-as-possible schedule against [deadline]. *)
val alap : Cdfg.t -> deadline:int -> t

(** Resource-constrained list scheduling, priority = ALAP slack.
    Unpipelined dividers occupy their unit for their full latency. *)
val list_schedule : ?res:resources -> Cdfg.t -> t

val cdiv : int -> int -> int

(** Functional-unit-constrained minimum initiation interval (memory system
    excluded — the partitioner computes that part when banking applies). *)
val fu_min_ii : ?res:resources -> Cdfg.t -> int

(** Memory-port-constrained II for unpartitioned (single-bank) arrays. *)
val mem_min_ii : ?res:resources -> Cdfg.t -> int

(** Dependencies respected and per-cycle resource bounds honored.  Kept for
    tests: the oracle the HLS tests check every list schedule against. *)
val validate : Cdfg.t -> t -> res:resources -> bool
