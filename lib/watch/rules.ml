(* Declarative recording and alert rules, evaluated once per scrape tick
   on caller-supplied time.

   A recording rule names an expression and writes its value back into the
   store as a derived series, so later rules (and the dashboard) can read
   it like any scraped signal; rules evaluate in declaration order, so a
   recording rule's output is visible to everything after it in the same
   tick.  An alert rule tests an expression against a condition — a static
   floor or an online change detector — and feeds the verdict to its own
   [Alarm]: firing is level-triggered and rising edges are counted, the
   lifecycle the Slo burn-rate monitors share.

   Expressions read the store (a series' latest value) and the windowed
   sketches (quantiles in O(buckets)).  An expression over a series or
   sketch with no data yet is undefined: the rule is skipped for the tick
   and alert state is left untouched. *)

module Alarm = Everest_observe.Alarm
module Metrics = Everest_telemetry.Metrics

type labels = (string * string) list

type expr =
  | Last of string * labels  (* newest value of a series *)
  | Quantile_over of string * labels * float * float  (* q, window_s *)

type cond =
  | Below of float
  | Detector of Detect.t  (* stepped once per evaluated tick *)

type rule =
  | Record of string * expr
  | Alert of string * expr * cond

let record name expr = Record (name, expr)
let alert name expr cond = Alert (name, expr, cond)

(* What expressions read: the series store plus a sketch lookup (the watch
   facade wires its windowed sketches in; bare engines can pass a lookup
   that always misses). *)
type ctx = {
  ctx_store : Series.Store.t;
  ctx_sketch : string -> labels -> Sketch.t option;
}

type alert_state = {
  as_name : string;
  as_alarm : Alarm.t;
  mutable as_value : float;  (* last evaluated expression value *)
}

(* A rule ready to evaluate, each alert beside its own state. *)
type step =
  | Write of string * expr
  | Check of expr * cond * alert_state

type t = { e_steps : step list; e_alerts : alert_state list }

let engine rules =
  let steps =
    List.map
      (function
        | Record (name, expr) -> Write (name, expr)
        | Alert (name, expr, cond) ->
            Check
              ( expr,
                cond,
                { as_name = name; as_alarm = Alarm.create (); as_value = 0.0 } ))
      rules
  in
  let alerts =
    List.filter_map
      (function Check (_, _, st) -> Some st | Write _ -> None)
      steps
  in
  (* names key the dashboard and [Watch.firing] *)
  let rec check_unique = function
    | [] -> ()
    | st :: rest ->
        if List.exists (fun o -> String.equal o.as_name st.as_name) rest then
          invalid_arg
            (Printf.sprintf "Rules.engine: two alert rules are named %S" st.as_name);
        check_unique rest
  in
  check_unique alerts;
  { e_steps = steps; e_alerts = alerts }

let alert_states t = t.e_alerts
let firing t = List.filter (fun s -> Alarm.firing s.as_alarm) t.e_alerts

let edges_total t =
  List.fold_left (fun acc s -> acc + Alarm.edges s.as_alarm) 0 t.e_alerts

let eval_expr ctx ~now = function
  | Last (name, labels) -> (
      match Series.Store.find ctx.ctx_store ~name ~labels with
      | None -> None
      | Some s -> Option.map snd (Series.latest s))
  | Quantile_over (name, labels, q, w) -> (
      match ctx.ctx_sketch name labels with
      | None -> None
      | Some sk ->
          let h = Sketch.query sk ~now ~window_s:w in
          if Metrics.hist_count h = 0 then None else Some (Metrics.quantile h q))

(* One evaluation pass.  Returns the alerts that newly fired this tick
   (rising edges), in rule order. *)
let eval t ctx ~now =
  List.filter_map
    (function
      | Write (name, expr) ->
          Option.iter
            (Series.Store.observe ctx.ctx_store ~now ~name ~labels:[])
            (eval_expr ctx ~now expr);
          None
      | Check (expr, cond, st) -> (
          match eval_expr ctx ~now expr with
          | None -> None
          | Some v ->
              st.as_value <- v;
              let holds =
                match cond with Below x -> v < x | Detector d -> Detect.step d v
              in
              if Alarm.update st.as_alarm ~now holds then Some st else None))
    t.e_steps
