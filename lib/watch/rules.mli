(** Declarative recording and alert rules evaluated once per scrape tick
    on caller-supplied time.

    Rules evaluate in declaration order; a recording rule's derived series
    is visible to every rule after it in the same tick.  Each alert's
    lifecycle — level-triggered firing, rising-edge count — is an
    {!Everest_observe.Alarm}, the one the {!Everest_observe.Slo} burn-rate
    monitors use.  An expression over a series or sketch with no data yet
    is undefined for the tick: the rule is skipped and alert state is
    untouched. *)

type labels = (string * string) list

type expr =
  | Last of string * labels  (** Newest value of a series. *)
  | Quantile_over of string * labels * float * float
      (** q over the trailing window_s of a windowed sketch. *)

type cond =
  | Below of float
  | Detector of Detect.t  (** Stepped once per evaluated tick. *)

type rule

(** Write the expression's value into the store as the unlabelled series
    [name]. *)
val record : string -> expr -> rule

val alert : string -> expr -> cond -> rule

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
