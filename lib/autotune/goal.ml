(* Optimization goals: prioritized constraints plus a rank objective, the
   mARGOt goal structure ("the optimization goal set for execution, e.g.
   performance or energy consumption", paper §IV). *)

type cmp = Le | Ge

type constr = {
  metric : string;
  cmp : cmp;
  bound : float;
  priority : int;  (* lower number = more important; relaxed last *)
}

type objective =
  | Minimize of string
  | Maximize of string
  (* geometric combination: minimize product of metric^weight *)
  | Combo of (string * float) list

type t = { constraints : constr list; objective : objective }

let make objective = { constraints = []; objective }

let satisfies (p : Knowledge.point) (c : constr) =
  match Knowledge.metric p c.metric with
  | None -> false
  | Some v -> ( match c.cmp with Le -> v <= c.bound | Ge -> v >= c.bound)

(* Rank score: lower is better. *)
let score (g : t) (p : Knowledge.point) =
  match g.objective with
  | Minimize m -> Knowledge.metric_exn p m
  | Maximize m -> -.Knowledge.metric_exn p m
  | Combo ws ->
      List.fold_left
        (fun acc (m, w) ->
          let v = Float.max 1e-30 (Knowledge.metric_exn p m) in
          acc *. Float.pow v w)
        1.0 ws
