(* Declarative recording and alert rules, evaluated once per scrape tick
   on caller-supplied time.

   A recording rule names an expression and writes its value back into the
   store as a derived series, so later rules (and the dashboard) can read
   it like any scraped signal; rules evaluate in declaration order, so a
   recording rule's output is visible to everything after it in the same
   tick.  An alert rule tests an expression against a condition — a static
   threshold or an online change detector — and feeds the verdict to its
   own [Alarm]: the condition must hold [for_s] before the alert fires,
   firing is level-triggered and rising edges are counted, the lifecycle
   the Slo burn-rate monitors share.

   Expressions read the store (latest value, or a fold over the raw
   samples a ring holds in a trailing window) and the windowed sketches
   (quantiles in O(buckets)).  An expression over a series with no data
   yet is undefined: the rule is skipped for the tick and alert hold-down
   state is left untouched. *)

module Alarm = Everest_observe.Alarm
module Metrics = Everest_telemetry.Metrics

type labels = (string * string) list

type expr =
  | Const of float
  | Last of string * labels  (* newest value of a series *)
  | Mean_over of string * labels * float  (* trailing window, seconds *)
  | Max_over of string * labels * float
  | Min_over of string * labels * float
  | Rate_over of string * labels * float
      (* (last - first) / (t_last - t_first) over the window: the
         counter-increase rate *)
  | Quantile_over of string * labels * float * float  (* q, window_s *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type cond =
  | Above of float
  | Below of float
  | Outside of float * float  (* inclusive band [lo, hi] *)
  | Detector of Detect.t  (* stepped once per evaluated tick *)

type rule =
  | Record of { rc_name : string; rc_labels : labels; rc_expr : expr }
  | Alert of {
      al_name : string;
      al_expr : expr;
      al_cond : cond;
      al_for_s : float;
    }

let record ?(labels = []) name expr =
  Record { rc_name = name; rc_labels = labels; rc_expr = expr }

let alert ?(for_s = 0.0) name expr cond =
  Alert { al_name = name; al_expr = expr; al_cond = cond; al_for_s = for_s }

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
  | Write of string * labels * expr
  | Check of expr * cond * alert_state

type t = { e_steps : step list; e_alerts : alert_state list }

let engine rules =
  let steps =
    List.map
      (function
        | Record { rc_name; rc_labels; rc_expr } ->
            Write (rc_name, rc_labels, rc_expr)
        | Alert { al_name; al_expr; al_cond; al_for_s } ->
            Check
              ( al_expr,
                al_cond,
                { as_name = al_name; as_alarm = Alarm.create ~for_s:al_for_s ();
                  as_value = 0.0 } ))
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

(* Fold [f] over the samples of a series in [now - w, now], oldest
   first, with the number of samples folded; undefined when the series is
   unknown or the window holds no sample. *)
let over ctx ~now name labels w f init =
  match Series.Store.find ctx.ctx_store ~name ~labels with
  | None -> None
  | Some s -> (
      match
        Series.fold s ~t0:(now -. w) ~t1:now
          (fun (n, acc) t v -> (n + 1, f acc t v))
          (0, init)
      with
      | 0, _ -> None
      | folded -> Some folded)

let rec eval_expr ctx ~now = function
  | Const v -> Some v
  | Last (name, labels) -> (
      match Series.Store.find ctx.ctx_store ~name ~labels with
      | None -> None
      | Some s -> Option.map snd (Series.latest s))
  | Mean_over (name, labels, w) ->
      Option.map
        (fun (n, sum) -> sum /. float_of_int n)
        (over ctx ~now name labels w (fun sum _ v -> sum +. v) 0.0)
  | Max_over (name, labels, w) ->
      Option.map snd
        (over ctx ~now name labels w (fun a _ v -> Float.max a v) neg_infinity)
  | Min_over (name, labels, w) ->
      Option.map snd
        (over ctx ~now name labels w (fun a _ v -> Float.min a v) infinity)
  | Rate_over (name, labels, w) -> (
      let ends acc t v =
        match acc with
        | None -> Some ((t, v), (t, v))
        | Some (first, _) -> Some (first, (t, v))
      in
      match over ctx ~now name labels w ends None with
      | Some (_, Some ((t0, v0), (t1, v1))) ->
          let dt = t1 -. t0 in
          if dt <= 0.0 then None else Some ((v1 -. v0) /. dt)
      | _ -> None)
  | Quantile_over (name, labels, q, w) -> (
      match ctx.ctx_sketch name labels with
      | None -> None
      | Some sk ->
          let h = Sketch.query sk ~now ~window_s:w in
          if Metrics.hist_count h = 0 then None else Some (Metrics.quantile h q))
  | Add (a, b) -> lift2 ctx ~now ( +. ) a b
  | Sub (a, b) -> lift2 ctx ~now ( -. ) a b
  | Mul (a, b) -> lift2 ctx ~now ( *. ) a b
  | Div (a, b) -> (
      match (eval_expr ctx ~now a, eval_expr ctx ~now b) with
      | Some x, Some y when y <> 0.0 -> Some (x /. y)
      | _ -> None)

and lift2 ctx ~now op a b =
  match (eval_expr ctx ~now a, eval_expr ctx ~now b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

(* One evaluation pass.  Returns the alerts that newly fired this tick
   (rising edges), in rule order. *)
let eval t ctx ~now =
  List.filter_map
    (function
      | Write (name, labels, expr) ->
          Option.iter
            (Series.Store.observe ctx.ctx_store ~now ~name ~labels)
            (eval_expr ctx ~now expr);
          None
      | Check (expr, cond, st) -> (
          match eval_expr ctx ~now expr with
          | None -> None
          | Some v ->
              st.as_value <- v;
              let holds =
                match cond with
                | Above x -> v > x
                | Below x -> v < x
                | Outside (lo, hi) -> v < lo || v > hi
                | Detector d -> Detect.step d v = Detect.Alarm
              in
              if Alarm.update st.as_alarm ~now holds then Some st else None))
    t.e_steps
