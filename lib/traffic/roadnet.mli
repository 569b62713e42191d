(** Road networks for the intelligent-transportation use case (§VI-C).

    Directed graphs with link capacities and free-flow speeds; a grid-city
    generator produces deterministic synthetic cities of any size. *)

type link = {
  link_id : int;
  src : int;
  dst : int;
  length_m : float;
  lanes : int;
  free_speed_ms : float;
  capacity_vph : float;  (** Vehicles per hour per lane. *)
}

type t = {
  n_nodes : int;
  links : link array;
  out_links : int list array;  (** Node -> outgoing link ids. *)
}

(** @raise Invalid_argument unless link ids are consecutive and endpoints
    in range. *)
val create : n_nodes:int -> link list -> t

val link : t -> int -> link
val n_links : t -> int
val free_flow_time : link -> float

(** [rows] x [cols] intersections 400 m apart, bidirectional streets, a
    faster arterial ring. *)
val grid_city : ?rows:int -> ?cols:int -> unit -> t

(** BPR volume-delay: travel time rising with the volume/capacity ratio. *)
val bpr_time : link -> volume_vph:float -> float

val bpr_speed : link -> volume_vph:float -> float
