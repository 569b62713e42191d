(* Deterministic dashboard rendering over a watch.

   Everything here is a pure function of watch state and the caller's
   [now]: series iterate in sorted store order, sketches in
   first-observation order, floats print at fixed precision, and the
   sparkline ramp is plain ASCII — so two same-seed runs (or a run and
   its resume) render byte-identical dashboards, which is exactly what
   the CI byte-identity check diffs.  [render] is the text form shown by
   [everest_cli top]; [to_json] is the machine form behind [--json]. *)

module Json = Everest_observe.Json
module Alarm = Everest_observe.Alarm
module Metrics = Everest_telemetry.Metrics

let ramp = " .:-=+*#%@"

let values s = List.map snd (Series.to_list s)

(* Sparkline over the newest 16 samples, normalized to their own min..max
   (a flat series renders as all-middle). *)
let sparkline (s : Series.t) =
  let vs = values s in
  let n = List.length vs in
  let vs = if n > 16 then List.filteri (fun i _ -> i >= n - 16) vs else vs in
  match vs with
  | [] -> ""
  | vs ->
      let lo = List.fold_left Float.min Float.infinity vs in
      let hi = List.fold_left Float.max Float.neg_infinity vs in
      let span = hi -. lo in
      let glyph v =
        let idx =
          if span <= 0.0 then (String.length ramp - 1) / 2
          else
            int_of_float
              (Float.round
                 ((v -. lo) /. span *. float_of_int (String.length ramp - 1)))
        in
        ramp.[max 0 (min (String.length ramp - 1) idx)]
      in
      String.init (List.length vs) (fun i -> glyph (List.nth vs i))

let fmt_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let fmt_f v = if Float.is_nan v then "-" else Printf.sprintf "%.6f" v

(* Summing from 0.0 and maxing from neg_infinity, oldest first: the
   dashboard's numbers are fixed to the bit by this order. *)
let mean vs = List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
let max_of vs = List.fold_left Float.max Float.neg_infinity vs

(* The quantiles each sketch shows, in the text and JSON forms alike. *)
let quantiles = [ 0.5; 0.99 ]

(* ---- text ------------------------------------------------------------------------ *)

let render (w : Watch.t) ~now =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let firing = Watch.firing w in
  line "everest top  t=%s  ticks=%d  series=%d  sketch_samples=%d  firing=%d"
    (fmt_f now) (Watch.ticks w)
    (Series.Store.size (Watch.store w))
    (Watch.samples w) (List.length firing);
  let series = Series.Store.to_list (Watch.store w) in
  if series <> [] then begin
    line "";
    line "%-44s %12s %12s %12s  %s" "SERIES" "LAST" "MEAN" "MAX" "TREND";
    List.iter
      (fun s ->
        let id = Series.name s ^ fmt_labels (Series.labels s) in
        match Series.latest s with
        | None -> line "%-44s %12s %12s %12s" id "-" "-" "-"
        | Some (_, last) ->
            let vs = values s in
            line "%-44s %12s %12s %12s  %s" id (fmt_f last)
              (fmt_f (mean vs)) (fmt_f (max_of vs))
              (sparkline s))
      series
  end;
  let sketches = Watch.sketch_list w in
  if sketches <> [] then begin
    line "";
    let qhdr =
      String.concat ""
        (List.map (fun q -> Printf.sprintf " %12s" (Printf.sprintf "p%g" (100.0 *. q))) quantiles)
    in
    line "%-44s %12s%s" "SKETCH (window)" "COUNT" qhdr;
    List.iter
      (fun (name, labels, sk) ->
        let h = Sketch.query sk ~now ~window_s:(Sketch.span_s sk) in
        let qs =
          String.concat ""
            (List.map
               (fun q -> Printf.sprintf " %12s" (fmt_f (Metrics.quantile h q)))
               quantiles)
        in
        line "%-44s %12d%s" (name ^ fmt_labels labels) (Metrics.hist_count h) qs)
      sketches
  end;
  let alerts = Watch.alert_states w in
  if alerts <> [] then begin
    line "";
    line "%-32s %8s %12s %6s %12s" "ALERT" "STATE" "VALUE" "EDGES" "SINCE";
    List.iter
      (fun (a : Rules.alert_state) ->
        line "%-32s %8s %12s %6d %12s" a.Rules.as_name
          (if Alarm.firing a.Rules.as_alarm then "FIRING" else "ok")
          (fmt_f a.Rules.as_value) (Alarm.edges a.Rules.as_alarm)
          (fmt_f (Alarm.since a.Rules.as_alarm)))
      alerts
  end;
  Buffer.contents buf

(* ---- json ------------------------------------------------------------------------ *)

let num v = if Float.is_nan v then Json.Null else Json.Num v
let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json (w : Watch.t) ~now =
  let series_json s =
    let vs = values s in
    let or_null f = if vs = [] then Json.Null else num (f vs) in
    Json.Obj
      [ ("name", Json.Str (Series.name s));
        ("labels", labels_json (Series.labels s));
        ("samples", Json.Num (float_of_int (Series.samples s)));
        ("last", or_null (fun vs -> List.nth vs (List.length vs - 1)));
        ("mean", or_null mean);
        ("max", or_null max_of) ]
  in
  let sketch_json (name, labels, sk) =
    let h = Sketch.query sk ~now ~window_s:(Sketch.span_s sk) in
    Json.Obj
      ([ ("name", Json.Str name);
         ("labels", labels_json labels);
         ("count", Json.Num (float_of_int (Metrics.hist_count h))) ]
      @ List.map
          (fun q -> (Printf.sprintf "p%g" (100.0 *. q), num (Metrics.quantile h q)))
          quantiles)
  in
  let alert_json (a : Rules.alert_state) =
    let al = a.Rules.as_alarm in
    Json.Obj
      [ ("name", Json.Str a.Rules.as_name);
        ("firing", Json.Bool (Alarm.firing al));
        ("value", num a.Rules.as_value);
        ("edges", Json.Num (float_of_int (Alarm.edges al)));
        ("since", num (Alarm.since al)) ]
  in
  Json.Obj
    [ ("now_s", Json.Num now);
      ("ticks", Json.Num (float_of_int (Watch.ticks w)));
      ("sketch_samples", Json.Num (float_of_int (Watch.samples w)));
      ("alert_edges_total", Json.Num (float_of_int (Watch.alerts_total w)));
      ("firing", Json.Arr (List.map (fun n -> Json.Str n) (Watch.firing w)));
      ( "series",
        Json.Arr (List.map series_json (Series.Store.to_list (Watch.store w)))
      );
      ("sketches", Json.Arr (List.map sketch_json (Watch.sketch_list w)));
      ("alerts", Json.Arr (List.map alert_json (Watch.alert_states w))) ]

let render_json w ~now = Json.to_string ~pretty:true (to_json w ~now)
