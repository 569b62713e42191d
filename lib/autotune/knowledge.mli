(** Application knowledge: the operating points of a kernel (mARGOt,
    paper ref [11]).

    Each code/hardware variant, measured or estimated under given data
    features, yields an operating point mapping the variant to its expected
    metrics.  The runtime selector consults this knowledge; runtime
    observations refine it. *)

type metrics = (string * float) list

type point = {
  variant : string;
  features : (string * float) list;  (** e.g. ["size"] -> 4096. *)
  metrics : metrics;  (** e.g. ["time_s"], ["energy_j"], ["error"]. *)
}

type t = { kernel : string; mutable points : point list }

val create : string -> point list -> t
val add : t -> point -> unit
val metric : point -> string -> float option

(** @raise Invalid_argument when the metric is absent. *)
val metric_exn : point -> string -> float

(** Normalized Euclidean distance over the union of feature keys. *)
val feature_distance :
  ?scales:(string * float) list ->
  (string * float) list ->
  (string * float) list ->
  float

(** Per-feature scale (max - min) across the knowledge. *)
val feature_scales : t -> (string * float) list

(** Points whose features are nearest to [features] (the mARGOt feature
    cluster). *)
val nearest_cluster : t -> features:(string * float) list -> point list

(** Exponential-moving-average update of the point matching [variant] (and
    nearest features); unknown variants are added as new points. *)
val observe :
  ?alpha:float ->
  t ->
  variant:string ->
  features:(string * float) list ->
  measured:metrics ->
  unit
