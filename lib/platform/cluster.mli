(** A distributed EVEREST system: nodes in edge/inner-edge/cloud tiers
    joined by heterogeneous links (Fig. 3), with data transfers and the
    canonical demonstrator topologies (Fig. 4). *)

type t = {
  sim : Desim.t;
  nodes : Node.t list;
  node_tbl : (string, Node.t) Hashtbl.t;
      (** Name index built at [create]; use [find_node]. *)
  mutable links : (string * string * Spec.link) list;
  mutable bytes_moved : int;
  mutable transfers : int;
}

val create : Node.t list -> t

(** O(1) name lookup. @raise Invalid_argument on unknown names. *)
val find_node : t -> string -> Node.t

val add_link : t -> string -> string -> Spec.link -> unit

(** Tier-based default link when no explicit topology entry exists. *)
val default_link : Node.t -> Node.t -> Spec.link

val link_between : t -> Node.t -> Node.t -> Spec.link

(** Move bytes between nodes (free on the same node); the continuation runs
    at arrival. *)
val transfer : t -> src:Node.t -> dst:Node.t -> bytes:int -> (unit -> unit) -> unit

val transfer_time : t -> src:Node.t -> dst:Node.t -> bytes:int -> float
val run : t -> unit
val elapsed : t -> float

(** Total energy of all nodes including idle floors over the elapsed time. *)
val total_energy : t -> float

(** Snapshot the whole system — engine counters, per-resource contention,
    transfer totals — into telemetry gauges. *)
val publish_metrics : ?registry:Everest_telemetry.Metrics.registry -> t -> unit

(** {2 Canonical EVEREST systems (Fig. 4)} *)

(** POWER9 node with two bus-attached (OpenCAPI) FPGAs. *)
val power9_node : string -> Node.t

(** A disaggregated network-attached cloudFPGA as a standalone node. *)
val cloudfpga_node : string -> Node.t

val edge_node : string -> Node.t
val endpoint_node : string -> Node.t

(** The full demonstrator: one POWER9 with bus FPGAs, a cloudFPGA rack on
    the DC network, edge nodes and endpoints. *)
val everest_demonstrator :
  ?cloud_fpgas:int -> ?edges:int -> ?endpoints:int -> unit -> t
