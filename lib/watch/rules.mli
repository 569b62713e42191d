(** Declarative recording and alert rules evaluated once per scrape tick
    on caller-supplied time.

    Rules evaluate in declaration order; a recording rule's derived series
    is visible to every rule after it in the same tick.  Window
    expressions fold the raw samples a series ring still holds in
    [[now - w, now]].  Each alert's lifecycle — [for_s] hold-down,
    level-triggered firing, rising-edge count — is an
    {!Everest_observe.Alarm}, the one the {!Everest_observe.Slo} burn-rate
    monitors use.  An expression over a series with no data yet is
    undefined for the tick: the rule is skipped and alert state is
    untouched. *)

type labels = (string * string) list

type expr =
  | Const of float
  | Last of string * labels  (** Newest value of a series. *)
  | Mean_over of string * labels * float  (** Trailing window, seconds. *)
  | Max_over of string * labels * float
  | Min_over of string * labels * float
  | Rate_over of string * labels * float
      (** (last - first) / (t_last - t_first) over the window: the
          counter-increase rate. *)
  | Quantile_over of string * labels * float * float  (** q, window_s. *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** Undefined on a zero divisor. *)

type cond =
  | Above of float
  | Below of float
  | Outside of float * float  (** Inclusive band [lo, hi]. *)
  | Detector of Detect.t  (** Stepped once per evaluated tick. *)

type rule

val record : ?labels:labels -> string -> expr -> rule
val alert : ?for_s:float -> string -> expr -> cond -> rule

(** What expressions read: the series store plus a sketch lookup. *)
type ctx = {
  ctx_store : Series.Store.t;
  ctx_sketch : string -> labels -> Sketch.t option;
}

type alert_state = {
  as_name : string;
  as_alarm : Everest_observe.Alarm.t;  (** Firing, edges, firing-since. *)
  mutable as_value : float;  (** Last evaluated expression value. *)
}

type t

(** @raise Invalid_argument when two alert rules share a name: names key
    the dashboard and {!Watch.firing}. *)
val engine : rule list -> t

(** One evaluation pass; returns the alerts that newly fired this tick. *)
val eval : t -> ctx -> now:float -> alert_state list

(** One state per alert rule, in declaration order. *)
val alert_states : t -> alert_state list

val firing : t -> alert_state list
val edges_total : t -> int
