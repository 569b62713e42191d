(** Particle abstraction (the second EVEREST data-centric DSL, §III-B:
    "Tensors and particles are two examples of EVEREST data-centric
    programming abstractions").

    A particle system holds N particles with named float attributes.
    Kernels are per-particle maps or cutoff-limited pairwise interactions.
    The same system can be laid out as array-of-structures (AoS) or
    structure-of-arrays (SoA); the layout changes memory behaviour, not
    semantics — the software-variant axis the paper's middle-end explores. *)

type layout = Aos | Soa

type system = {
  n : int;
  attrs : string list;  (** Attribute order defines the AoS field order. *)
  layout : layout;
  data : float array;
}

val n_attrs : system -> int

(** Kept for PAPER.md §1's DSL row: an attribute's field position.
    @raise Invalid_argument on unknown attributes. *)
val attr_index : system -> string -> int

(** Kept for PAPER.md §1's DSL row: [?layout], the AoS/SoA layout variants
    of the particle system. *)
val create : ?layout:layout -> n:int -> string list -> system

(** Kept for PAPER.md §1's DSL row: read one particle attribute. *)
val get : system -> int -> string -> float

(** Kept for PAPER.md §1's DSL row: write one particle attribute. *)
val set : system -> int -> string -> float -> unit

(** Kept for PAPER.md §1's DSL row: the same logical contents in the other
    layout. *)
val with_layout : system -> layout -> system

(** Kept for PAPER.md §1's DSL row: equal logical contents, whatever the
    layouts. *)
val equal_contents : system -> system -> bool

(** {2 Kernels} *)

(** Kept for PAPER.md §1's DSL row: a per-particle map.  [f] receives
    current values in [reads] order and returns new values in [writes]
    order. *)
val map_kernel :
  system -> reads:string list -> writes:string list ->
  (float list -> float list) -> unit

(** Kept for PAPER.md §1's DSL row: a cutoff-limited symmetric pairwise
    interaction on (x, y) accumulating into (fx, fy); returns the number of
    interacting pairs. *)
val pairwise_kernel :
  system -> cutoff:float -> (float -> float -> float -> float * float) -> int

(** {2 Layout cost model} *)

(** Bytes a map kernel drags through the memory system: AoS loads whole
    records, SoA streams only the touched fields. *)
val map_traffic_bytes : system -> reads:string list -> writes:string list -> int

val soa_speedup : system -> reads:string list -> writes:string list -> float

(** SoA when kernels touch a minority of fields, else AoS. *)
val recommend_layout :
  system -> reads:string list -> writes:string list -> layout

(** {2 Reference simulation} *)

(** Kept for PAPER.md §1's DSL row: one leapfrog step (dt = 0.01) of a
    2-D short-range force field; returns the number of interacting
    pairs. *)
val step :
  system ->
  cutoff:float ->
  force:(float -> float -> float -> float * float) ->
  int

val standard_attrs : string list

(** Kept for PAPER.md §1's DSL row: [n] particles at seeded random
    positions in a [box]-sized square, [?layout] choosing the AoS or SoA
    variant and [?seed] the draw. *)
val random_system :
  ?seed:int -> ?layout:layout -> n:int -> box:float -> unit -> system
