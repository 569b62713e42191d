(* Declarative service-level objectives with error budgets and multi-window
   burn-rate alerting, evaluated over simulated time.

   An objective classifies each outcome (one served request, or one
   workflow task) as good or bad:

     - [Availability target]: bad = the request failed; budget = 1-target.
     - [Latency_quantile {q; limit_s}]: "q of requests finish within
       limit_s"; bad = slower than the limit (or failed); budget = 1-q.
     - [Completion_ratio target]: availability over task outcomes.

   [evaluate] is the batch view over a whole log.  [monitor] is the online
   view the orchestrator feeds as requests complete: it keeps a bounded
   event window and evaluates the standard fast/slow two-window burn-rate
   rule — alert when *both* a short and a long window burn the error budget
   faster than [burn_threshold] — so a short blip does not page but a
   sustained burn does, and recovery resets the alert quickly.  Firing and
   rising edges are an [Alarm], the lifecycle watch rules share.  Time
   comes from the caller ([~now]), so everything runs on the Desim
   simulated clock and is deterministic. *)

type objective =
  | Availability of { target : float }  (* fraction of requests ok *)
  | Latency_quantile of { q : float; limit_s : float }
  | Completion_ratio of { target : float }  (* fraction of tasks done *)

type spec = { slo_name : string; objective : objective }

let availability name target =
  { slo_name = name; objective = Availability { target } }

let latency name ~q ~limit_s =
  { slo_name = name; objective = Latency_quantile { q; limit_s } }

let completion name target =
  { slo_name = name; objective = Completion_ratio { target } }

(* One observed unit: a request (or task) that finished at [o_t_s]. *)
type outcome = { o_t_s : float; o_ok : bool; o_latency_s : float }

(* Allowed bad fraction. *)
let error_budget = function
  | Availability { target } | Completion_ratio { target } ->
      Float.max 1e-9 (1.0 -. target)
  | Latency_quantile { q; _ } -> Float.max 1e-9 (1.0 -. q)

let is_bad spec (o : outcome) =
  match spec.objective with
  | Availability _ | Completion_ratio _ -> not o.o_ok
  | Latency_quantile { limit_s; _ } -> (not o.o_ok) || o.o_latency_s > limit_s

(* Exact empirical quantile (nearest-rank): value at index ceil(q*n). *)
let exact_quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      arr.(max 0 (min (n - 1) (rank - 1)))

type result = {
  res_name : string;
  res_kind : string;  (* "availability" | "latency" | "completion" *)
  attained : float;  (* measured value of the objective *)
  target : float;  (* what the spec demands *)
  met : bool;
  budget : float;  (* allowed bad fraction *)
  budget_used : float;  (* bad fraction / budget; > 1 means exhausted *)
  total : int;
  bad : int;
}

(* The result for [total] outcomes of which [bad] were bad.  Counting
   objectives are decided from the tallies alone; [latency ~q ~limit_s
   ~bad_frac ~budget] gives a latency objective's attained value, target
   and verdict, which each caller measures its own way. *)
let result_of spec ~total ~bad ~latency =
  let bad_frac =
    if total = 0 then 0.0 else float_of_int bad /. float_of_int total
  in
  let budget = error_budget spec.objective in
  let kind, attained, target, met =
    match spec.objective with
    | Availability { target } ->
        ("availability", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Completion_ratio { target } ->
        ("completion", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Latency_quantile { q; limit_s } ->
        let attained, target, met = latency ~q ~limit_s ~bad_frac ~budget in
        ("latency", attained, target, met)
  in
  { res_name = spec.slo_name; res_kind = kind; attained; target; met;
    budget; budget_used = bad_frac /. budget; total; bad }

let evaluate spec (outcomes : outcome list) : result =
  let total = List.length outcomes in
  let bad = List.length (List.filter (is_bad spec) outcomes) in
  result_of spec ~total ~bad
    ~latency:(fun ~q ~limit_s ~bad_frac ~budget ->
      let lat =
        exact_quantile
          (List.filter_map
             (fun o -> if o.o_ok then Some o.o_latency_s else None)
             outcomes)
          q
      in
      (lat, limit_s, lat <= limit_s && bad_frac <= budget))

let evaluate_all specs outcomes = List.map (fun s -> evaluate s outcomes) specs

(* Counting objectives need only the tallies, not the outcome log — the
   executor's report hook evaluates completion over 10⁶ task outcomes
   without materializing a 10⁶-element list.  Latency objectives need the
   individual samples; feed those through [evaluate]. *)
let evaluate_counts spec ~total ~bad : result =
  result_of spec ~total ~bad
    ~latency:(fun ~q:_ ~limit_s:_ ~bad_frac:_ ~budget:_ ->
      invalid_arg "Slo.evaluate_counts: latency objectives need samples")

(* ---- online burn-rate monitor --------------------------------------------------- *)

type alert_config = {
  fast_window_s : float;  (* short window: catches fresh, fast burns *)
  slow_window_s : float;  (* long window: confirms the burn is sustained *)
  burn_threshold : float;  (* alert when both windows burn >= this rate *)
}

(* Both windows at 2x budget burn — conservative enough for the short
   simulated runs these monitors watch.  Callers with a real budget window
   scale fast/slow to ~1/60 and ~1/12 of it (the SRE 5m/1h pairing). *)
let default_alert =
  { fast_window_s = 0.05; slow_window_s = 0.5; burn_threshold = 2.0 }

(* The kept events are the slice [m_lo, m_hi) of a time-sorted buffer:
   times unboxed in [m_times], one byte per bad flag.  [observe] appends
   at [m_hi] and advances [m_lo] past events older than the slow window,
   so the slice is exactly the event list a newest-first list with the
   same prune rule would hold, oldest first.

   A trailing window [ts >= now - window_s] over a sorted slice is a
   suffix [c, m_hi).  Each window keeps a cursor at [c] with running
   tallies over that suffix; a query slides the cursor to the suffix for
   its [now] (forward past older events, or back down to [m_lo] for an
   earlier [now]), so every answer is exact and a run of queries at
   non-decreasing times costs amortised O(1). *)
type cursor = {
  mutable c_at : int;
  mutable c_total : int;  (* events in [c_at, m_hi) *)
  mutable c_bad : int;
}

type monitor = {
  m_spec : spec;
  m_alert : alert_config;
  m_budget : float;
  mutable m_times : float array;  (* ascending over [m_lo, m_hi) *)
  mutable m_flags : Bytes.t;  (* '\001' where the event was bad *)
  mutable m_lo : int;
  mutable m_hi : int;
  m_fast : cursor;
  m_slow : cursor;
  mutable m_total : int;
  mutable m_bad : int;
  mutable m_last_t : float;
  m_alarm : Alarm.t;
}

let initial_capacity = 64

let monitor ?(alert = default_alert) spec =
  { m_spec = spec; m_alert = alert; m_budget = error_budget spec.objective;
    m_times = Array.make initial_capacity 0.0;
    m_flags = Bytes.make initial_capacity '\000'; m_lo = 0; m_hi = 0;
    m_fast = { c_at = 0; c_total = 0; c_bad = 0 };
    m_slow = { c_at = 0; c_total = 0; c_bad = 0 };
    m_total = 0; m_bad = 0; m_last_t = 0.0; m_alarm = Alarm.create () }

let monitor_name m = m.m_spec.slo_name
let firing m = Alarm.firing m.m_alarm
let alerts m = Alarm.edges m.m_alarm
let observed m = m.m_total

let bad_at m i = Bytes.get m.m_flags i <> '\000'

(* Move the kept slice to the front of a buffer of [cap] slots (the same
   buffer when [cap] is its size: an in-place compaction). *)
let relocate m cap =
  let live = m.m_hi - m.m_lo in
  let times, flags =
    if cap = Array.length m.m_times then (m.m_times, m.m_flags)
    else (Array.make cap 0.0, Bytes.make cap '\000')
  in
  Array.blit m.m_times m.m_lo times 0 live;
  Bytes.blit m.m_flags m.m_lo flags 0 live;
  m.m_fast.c_at <- m.m_fast.c_at - m.m_lo;
  m.m_slow.c_at <- m.m_slow.c_at - m.m_lo;
  m.m_times <- times;
  m.m_flags <- flags;
  m.m_lo <- 0;
  m.m_hi <- live

let count c bad =
  c.c_total <- c.c_total + 1;
  if bad then c.c_bad <- c.c_bad + 1

let push m t bad =
  let cap = Array.length m.m_times in
  if m.m_hi = cap then relocate m (if 2 * (m.m_hi - m.m_lo) <= cap then cap else 2 * cap);
  m.m_times.(m.m_hi) <- t;
  Bytes.set m.m_flags m.m_hi (if bad then '\001' else '\000');
  m.m_hi <- m.m_hi + 1;
  (* the new event is the newest, so it lies in every cursor's suffix *)
  count m.m_fast bad;
  count m.m_slow bad

let step_forward m c =
  c.c_total <- c.c_total - 1;
  if bad_at m c.c_at then c.c_bad <- c.c_bad - 1;
  c.c_at <- c.c_at + 1

let catch_up m c =
  while c.c_at < m.m_lo do
    step_forward m c
  done

(* Slide [c] to the first kept event with [ts >= lo], the comparison a
   fold over the kept events would make. *)
let seek m c lo =
  while c.c_at > m.m_lo && m.m_times.(c.c_at - 1) >= lo do
    c.c_at <- c.c_at - 1;
    count c (bad_at m c.c_at)
  done;
  while c.c_at < m.m_hi && m.m_times.(c.c_at) < lo do
    step_forward m c
  done

(* Bad fraction over the trailing [window_s], over the error budget; the
   fraction is 0 when no events fall in. *)
let burn_rate m c ~now ~window_s =
  seek m c (now -. window_s);
  let frac =
    if c.c_total = 0 then 0.0 else float_of_int c.c_bad /. float_of_int c.c_total
  in
  frac /. m.m_budget

let burn_rates m ~now =
  ( burn_rate m m.m_fast ~now ~window_s:m.m_alert.fast_window_s,
    burn_rate m m.m_slow ~now ~window_s:m.m_alert.slow_window_s )

let observe m ~now ?(latency_s = 0.0) ~ok () =
  if m.m_hi > m.m_lo && now < m.m_times.(m.m_hi - 1) then
    invalid_arg
      (Printf.sprintf "Slo.observe %s: now %.17g precedes the newest event %.17g"
         m.m_spec.slo_name now m.m_times.(m.m_hi - 1));
  let bad = is_bad m.m_spec { o_t_s = now; o_ok = ok; o_latency_s = latency_s } in
  push m now bad;
  m.m_total <- m.m_total + 1;
  if bad then m.m_bad <- m.m_bad + 1;
  m.m_last_t <- Float.max m.m_last_t now;
  (* prune events that fell out of the slow window, and drop them from
     any cursor still behind the new head *)
  let lo = now -. m.m_alert.slow_window_s in
  while m.m_lo < m.m_hi && m.m_times.(m.m_lo) < lo do
    m.m_lo <- m.m_lo + 1
  done;
  catch_up m m.m_fast;
  catch_up m m.m_slow;
  let threshold = m.m_alert.burn_threshold in
  ignore
    (Alarm.update m.m_alarm ~now
       (burn_rate m m.m_fast ~now ~window_s:m.m_alert.fast_window_s >= threshold
       && burn_rate m m.m_slow ~now ~window_s:m.m_alert.slow_window_s
          >= threshold))

(* Batch result over everything the monitor has seen (all-time, not
   windowed) — the end-of-run SLO verdict. *)
let snapshot m : result =
  result_of m.m_spec ~total:m.m_total ~bad:m.m_bad
    ~latency:(fun ~q ~limit_s ~bad_frac ~budget ->
      (* windowed monitors do not keep every latency; report the bad
         fraction against the budget instead of the exact quantile *)
      (1.0 -. bad_frac, q, bad_frac <= budget && limit_s >= 0.0))

(* Checkpoint/restore: the monitor's full mutable core.  The kept events
   travel as a newest-first list, the order snapshots have always stored,
   so a restored monitor burns and prunes byte-identically to one that
   never stopped.  The cursors are not part of it: import rebuilds
   them. *)
type monitor_state = {
  ms_events : (float * bool) list;  (* newest first *)
  ms_total : int;
  ms_bad : int;
  ms_last_t : float;
  ms_firing : bool;
  ms_alerts : int;
}

let monitor_export m =
  let rec newest_first i acc =
    if i = m.m_hi then acc
    else newest_first (i + 1) ((m.m_times.(i), bad_at m i) :: acc)
  in
  { ms_events = newest_first m.m_lo []; ms_total = m.m_total; ms_bad = m.m_bad;
    ms_last_t = m.m_last_t; ms_firing = firing m; ms_alerts = alerts m }

let monitor_import m s =
  let rec check_order = function
    | (newer, _) :: ((older, _) :: _ as rest) ->
        if newer < older then
          invalid_arg
            (Printf.sprintf "Slo.monitor_import %s: events are not newest first"
               m.m_spec.slo_name);
        check_order rest
    | [ _ ] | [] -> ()
  in
  check_order s.ms_events;
  m.m_lo <- 0;
  m.m_hi <- 0;
  List.iter
    (fun c ->
      c.c_at <- 0;
      c.c_total <- 0;
      c.c_bad <- 0)
    [ m.m_fast; m.m_slow ];
  List.iter (fun (t, bad) -> push m t bad) (List.rev s.ms_events);
  m.m_total <- s.ms_total;
  m.m_bad <- s.ms_bad;
  m.m_last_t <- s.ms_last_t;
  Alarm.restore m.m_alarm ~firing:s.ms_firing ~edges:s.ms_alerts

(* ---- serialization -------------------------------------------------------------- *)

let result_to_json r =
  Json.Obj
    [ ("slo", Json.Str r.res_name); ("kind", Json.Str r.res_kind);
      ("attained", Json.Num r.attained); ("target", Json.Num r.target);
      ("met", Json.Bool r.met); ("budget", Json.Num r.budget);
      ("budget_used", Json.Num r.budget_used);
      ("total", Json.Num (float_of_int r.total));
      ("bad", Json.Num (float_of_int r.bad)) ]

let pp_result ppf r =
  Fmt.pf ppf "%-20s %s attained=%.4g target=%.4g budget used %.0f%% %s"
    r.res_name r.res_kind r.attained r.target (100.0 *. r.budget_used)
    (if r.met then "met" else "VIOLATED")
