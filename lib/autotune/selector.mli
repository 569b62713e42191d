(** The mARGOt decision core: select the operating point that satisfies the
    constraints (relaxing the least-important ones when infeasible) and
    optimizes the rank objective, within the feature cluster nearest to the
    current input. *)

type decision = {
  point : Knowledge.point;
  relaxed : Goal.constr list;  (** Constraints that had to be dropped. *)
}

(** Candidates satisfying [constraints]; constraints are dropped from the
    least important (highest priority number) until non-empty.  Returns the
    survivors and the relaxed constraints. *)
val feasible_set :
  Knowledge.point list ->
  Goal.constr list ->
  Goal.constr list ->
  Knowledge.point list * Goal.constr list

(** [None] only when the knowledge is empty. *)
val select :
  Knowledge.t -> Goal.t -> features:(string * float) list -> decision option
