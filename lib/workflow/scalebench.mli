(** Estee-style scheduler scale harness (experiment e17).

    Seeded DAG-family generators at 10³–10⁶ tasks, wall-clock-timed
    planning and simulated execution on the demonstrator cluster,
    delta-vs-full rescheduling after node death, and the cost of forcing
    the telemetry report on million-span logs.  Used by [bench/estee.ml]
    and the [everest_cli estee] smoke check. *)

type family = Layered | Fork_join | Ensemble

val family_name : family -> string
val family_of_string : string -> family option

(** A family instance of approximately [tasks] tasks; read the exact size
    back with [Dag.size]. *)
val make_dag : ?seed:int -> family -> tasks:int -> Dag.t

(** [Scheduler.by_name] plus ["heft-reference"], the quadratic pre-PR HEFT
    kept as the speedup baseline. *)
val planner_of_string :
  string -> (Everest_platform.Cluster.t -> Dag.t -> Scheduler.plan) option

type sample = {
  sb_family : string;
  sb_tasks : int;  (** actual task count of the generated DAG *)
  sb_policy : string;
  sb_plan_wall_s : float;  (** wall-clock planning time *)
  sb_tasks_per_s : float;  (** [sb_tasks /. sb_plan_wall_s] *)
  sb_exec_wall_s : float;  (** wall-clock of simulated execution; <0 if skipped *)
  sb_makespan_s : float;  (** simulated makespan; <0 if execution skipped *)
}

(** Plan (and with [execute], run through the simulator) one family
    instance under [policy] on a fresh demonstrator cluster.
    @raise Invalid_argument on unknown policies. *)
val run_policy :
  ?seed:int -> ?execute:bool -> family -> tasks:int -> policy:string -> sample

type delta_sample = {
  ds_tasks : int;
  ds_dead : string;
  ds_moved_frac : float;  (** re-placed assignments / tasks *)
  ds_full_wall_s : float;  (** full reschedule over survivors *)
  ds_delta_wall_s : float;  (** cone-local repair *)
  ds_full_makespan_s : float;
  ds_delta_makespan_s : float;
}

(** Time [Scheduler.heft ~exclude] against [Scheduler.heft_delta] for the
    death of node [dead] on the seed-17 DAG, then simulate both repaired
    plans. *)
val run_delta : ?execute:bool -> family -> tasks:int -> dead:string -> delta_sample

type telemetry_sample = {
  ts_tasks : int;
  ts_spans : int;  (** spans recorded by the traced run *)
  ts_run_wall_s : float;  (** plan + simulated execution, tracing on *)
  ts_report_wall_s : float;  (** forcing the lazy Observe report *)
  ts_report_frac : float;  (** report / run *)
}

(** Execute a layered instance with tracing on (sink sized so nothing
    drops) and force the full Observe report.  Both walls are minima over
    [repeats] identical pipelines (default 3) — min-of-N is the low-noise
    estimator for deterministic replay on a shared machine. *)
val run_telemetry : ?repeats:int -> tasks:int -> unit -> telemetry_sample

(** One-line JSON objects for the BENCH_e17.json emitter. *)
val sample_json : sample -> string

val delta_json : delta_sample -> string
val telemetry_json : telemetry_sample -> string
