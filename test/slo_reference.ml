(* The list-backed burn-rate monitor that [Everest_observe.Slo.monitor]
   replaced, kept verbatim as a test oracle: every observe and query folds
   the whole kept window, so it is exact by inspection and O(window) per
   call.  The monitor's properties are checked against it. *)

open Everest_observe.Slo

(* Allowed bad fraction. *)
let error_budget = function
  | Availability { target } | Completion_ratio { target } ->
      Float.max 1e-9 (1.0 -. target)
  | Latency_quantile { q; _ } -> Float.max 1e-9 (1.0 -. q)

let is_bad spec (o : outcome) =
  match spec.objective with
  | Availability _ | Completion_ratio _ -> not o.o_ok
  | Latency_quantile { limit_s; _ } -> (not o.o_ok) || o.o_latency_s > limit_s

type monitor = {
  m_spec : spec;
  m_alert : alert_config;
  mutable m_events : (float * bool) list;  (* (t, bad), newest first *)
  mutable m_total : int;
  mutable m_bad : int;
  mutable m_last_t : float;
  mutable m_firing : bool;
  mutable m_alerts : int;  (* rising edges *)
}

let monitor ?(alert = default_alert) spec =
  { m_spec = spec; m_alert = alert; m_events = []; m_total = 0; m_bad = 0;
    m_last_t = 0.0; m_firing = false; m_alerts = 0 }

let firing m = m.m_firing
let alerts m = m.m_alerts
let observed m = m.m_total

(* Bad fraction over the trailing [window_s]; 0 when no events fall in. *)
let window_bad_frac m ~now ~window_s =
  let lo = now -. window_s in
  let total, bad =
    List.fold_left
      (fun (t, b) (ts, is_bad) ->
        if ts >= lo then (t + 1, if is_bad then b + 1 else b) else (t, b))
      (0, 0) m.m_events
  in
  if total = 0 then 0.0 else float_of_int bad /. float_of_int total

let burn_rates m ~now =
  let budget = error_budget m.m_spec.objective in
  ( window_bad_frac m ~now ~window_s:m.m_alert.fast_window_s /. budget,
    window_bad_frac m ~now ~window_s:m.m_alert.slow_window_s /. budget )

let observe m ~now ?(latency_s = 0.0) ~ok () =
  let bad = is_bad m.m_spec { o_t_s = now; o_ok = ok; o_latency_s = latency_s } in
  m.m_events <- (now, bad) :: m.m_events;
  m.m_total <- m.m_total + 1;
  if bad then m.m_bad <- m.m_bad + 1;
  m.m_last_t <- Float.max m.m_last_t now;
  (* prune events that fell out of the slow window *)
  let lo = now -. m.m_alert.slow_window_s in
  (match List.rev m.m_events with
  | (oldest_t, _) :: _ when oldest_t < lo ->
      m.m_events <- List.filter (fun (t, _) -> t >= lo) m.m_events
  | _ -> ());
  let fast, slow = burn_rates m ~now in
  let was = m.m_firing in
  m.m_firing <-
    fast >= m.m_alert.burn_threshold && slow >= m.m_alert.burn_threshold;
  if m.m_firing && not was then m.m_alerts <- m.m_alerts + 1

(* Batch result over everything the monitor has seen (all-time, not
   windowed) — the end-of-run SLO verdict. *)
let snapshot m : result =
  let total = m.m_total and bad = m.m_bad in
  let bad_frac =
    if total = 0 then 0.0 else float_of_int bad /. float_of_int total
  in
  let budget = error_budget m.m_spec.objective in
  let kind, attained, target, met =
    match m.m_spec.objective with
    | Availability { target } ->
        ("availability", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Completion_ratio { target } ->
        ("completion", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Latency_quantile { q; limit_s } ->
        (* windowed monitors do not keep every latency; report the bad
           fraction against the budget instead of the exact quantile *)
        ("latency", 1.0 -. bad_frac, q, bad_frac <= budget && limit_s >= 0.0)
  in
  { res_name = m.m_spec.slo_name; res_kind = kind; attained; target; met;
    budget; budget_used = bad_frac /. budget; total; bad }

let monitor_export m =
  { ms_events = m.m_events; ms_total = m.m_total; ms_bad = m.m_bad;
    ms_last_t = m.m_last_t; ms_firing = m.m_firing; ms_alerts = m.m_alerts }

let monitor_import m s =
  m.m_events <- s.ms_events;
  m.m_total <- s.ms_total;
  m.m_bad <- s.ms_bad;
  m.m_last_t <- s.ms_last_t;
  m.m_firing <- s.ms_firing;
  m.m_alerts <- s.ms_alerts
