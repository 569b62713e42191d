(** Resource allocation and binding.

    Functional-unit binding packs scheduled operations of one class onto
    the fewest units via the left-edge algorithm on issue intervals;
    register binding does the same on value live ranges. *)

type fu = { fu_id : int; fu_class : Cdfg.opclass; ops : int list }

type binding = {
  fus : fu list;
  registers : int;  (** Minimum register count from live-range packing. *)
  node_fu : (int * int) list;  (** Node id -> functional unit id. *)
}

(** Left-edge interval packing: rows of non-overlapping members. *)
val left_edge : (int * int * int) list -> int list list

val bind : Cdfg.t -> Schedule.t -> binding

(** No two ops bound to one unit overlap in time.  Kept for tests: the
    oracle the HLS tests check every binding against. *)
val validate : Cdfg.t -> Schedule.t -> binding -> bool
