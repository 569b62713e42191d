(** Optimization goals: prioritized constraints plus a rank objective (the
    mARGOt goal structure). *)

type cmp = Le | Ge

type constr = {
  metric : string;
  cmp : cmp;
  bound : float;
  priority : int;  (** Lower number = more important; relaxed last. *)
}

type objective =
  | Minimize of string
  | Maximize of string
  | Combo of (string * float) list
      (** Geometric combination: minimize the product of metric^weight. *)

type t = { constraints : constr list; objective : objective }

(** A goal with no constraints. *)
val make : objective -> t

(** Does the point satisfy the constraint?  Missing metrics fail. *)
val satisfies : Knowledge.point -> constr -> bool

(** Rank score; lower is better.
    @raise Invalid_argument when a referenced metric is absent. *)
val score : t -> Knowledge.point -> float
