(* everest_watch: the series ring, the windowed sketch and histogram merge
   laws, change detectors (never-alarm / always-alarm properties), rules,
   the facade, the dashboard's determinism, and random scripts checked
   against the reference watch. *)

module Series = Everest_watch.Series
module Sketch = Everest_watch.Sketch
module Detect = Everest_watch.Detect
module Rules = Everest_watch.Rules
module Scrape = Everest_watch.Scrape
module Watch = Everest_watch.Watch
module Live = Everest_watch.Live
module Metrics = Everest_telemetry.Metrics
module Alarm = Everest_observe.Alarm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checks = Alcotest.(check string)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* ---- series ---------------------------------------------------------------------- *)

let test_series_ring_bounds () =
  let s = Series.create ~capacity:8 ~name:"x" ~labels:[] () in
  for i = 0 to 99 do
    Series.observe s ~t:(float_of_int i) (float_of_int i)
  done;
  let pts = Series.to_list s in
  checki "capacity bounds the ring" 8 (List.length pts);
  checki "raw samples still counted" 100 (Series.samples s);
  (* the ring keeps the newest points *)
  checkf "oldest survivor" 92.0 (fst (List.hd pts));
  checkf "latest" 99.0 (snd (Option.get (Series.latest s)))

let test_series_time_backwards () =
  let s = Series.create ~name:"x" ~labels:[] () in
  Series.observe s ~t:5.0 1.0;
  Series.observe s ~t:5.0 2.0;
  checkb "an earlier sample is refused" true
    (raises_invalid (fun () -> Series.observe s ~t:1.0 3.0));
  checkb "latest stays the newest" true (Series.latest s = Some (5.0, 2.0));
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "window keeps both tied samples"
    [ (5.0, 1.0); (5.0, 2.0) ]
    (Series.fold s ~t0:4.0 ~t1:6.0 (fun acc t v -> acc @ [ (t, v) ]) [])

let test_store_sorted_iteration () =
  let st = Series.Store.create () in
  Series.Store.observe st ~now:0.0 ~name:"zeta" ~labels:[] 1.0;
  Series.Store.observe st ~now:0.0 ~name:"alpha" ~labels:[ ("b", "2") ] 1.0;
  Series.Store.observe st ~now:0.0 ~name:"alpha" ~labels:[ ("a", "1") ] 1.0;
  let names = List.map Series.name (Series.Store.to_list st) in
  Alcotest.(check (list string)) "sorted by (name, labels)"
    [ "alpha"; "alpha"; "zeta" ] names;
  checki "size" 3 (Series.Store.size st);
  checkb "label order normalized" true
    (Series.Store.find st ~name:"alpha" ~labels:[ ("a", "1") ] <> None)

(* ---- sketch ---------------------------------------------------------------------- *)

(* The windowed sketch merges Metrics histograms, so the merge laws are
   the histogram's. *)
let hist_of values =
  let h = Metrics.make_histogram () in
  List.iter (Metrics.observe h) values;
  h

let merge a b =
  let h = Metrics.make_histogram () in
  Metrics.hist_merge_into ~into:h a;
  Metrics.hist_merge_into ~into:h b;
  h

let hist_eq a b =
  Metrics.hist_count a = Metrics.hist_count b
  && Float.abs (Metrics.hist_sum a -. Metrics.hist_sum b) < 1e-9
  && Float.abs (Metrics.hist_min a -. Metrics.hist_min b) < 1e-12
  && Float.abs (Metrics.hist_max a -. Metrics.hist_max b) < 1e-12
  && List.for_all
       (fun q -> Float.abs (Metrics.quantile a q -. Metrics.quantile b q) < 1e-12)
       [ 0.1; 0.5; 0.9; 0.99 ]

let samples_gen = QCheck.(list_of_size Gen.(int_range 0 50) (float_range 0.0 1e3))

let prop_merge_associative =
  QCheck.Test.make ~count:100 ~name:"sketch merge is associative"
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let a () = hist_of xs and b () = hist_of ys and c () = hist_of zs in
      hist_eq (merge (merge (a ()) (b ())) (c ())) (merge (a ()) (merge (b ()) (c ()))))

let prop_merge_commutative =
  QCheck.Test.make ~count:100 ~name:"sketch merge is commutative"
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      hist_eq (merge (hist_of xs) (hist_of ys)) (merge (hist_of ys) (hist_of xs)))

let prop_merge_equals_union =
  QCheck.Test.make ~count:100 ~name:"merge of parts equals sketch of union"
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) -> hist_eq (merge (hist_of xs) (hist_of ys)) (hist_of (xs @ ys)))

let test_sketch_quantile_matches_metrics () =
  (* a windowed query over samples from one slot answers like the
     registry histogram that saw the same samples *)
  let values = [ 0.001; 0.004; 0.004; 0.02; 0.3; 2.0 ] in
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "lat" in
  List.iter (Metrics.observe h) values;
  let sk = Sketch.create () in
  List.iter (Sketch.observe sk ~now:0.01) values;
  let q_h = Sketch.query sk ~now:0.01 ~window_s:(Sketch.span_s sk) in
  List.iter
    (fun q ->
      checkf
        (Printf.sprintf "q=%g agrees with Metrics" q)
        (Metrics.quantile h q) (Metrics.quantile q_h q))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_windowed_rotation () =
  let w = Sketch.create ~bucket_s:0.1 ~slots:5 () in
  (* old epoch, then far newer samples: the query over the trailing window
     must only see the new ones *)
  Sketch.observe w ~now:0.0 100.0;
  Sketch.observe w ~now:10.0 1.0;
  Sketch.observe w ~now:10.05 2.0;
  let h = Sketch.query w ~now:10.05 ~window_s:0.5 in
  checki "stale slots rotated out" 2 (Metrics.hist_count h);
  checkf "max is recent" 2.0 (Metrics.hist_max h);
  checki "samples counts everything ever" 3 (Sketch.samples w)

let test_sketch_time_backwards () =
  (* 9.0 is one full 1 s span before 10.0: it maps to the slot that holds
     10.0, and resetting it would erase the newer sample *)
  let w = Sketch.create ~bucket_s:0.1 ~slots:10 () in
  Sketch.observe w ~now:10.0 1.0;
  checkb "an earlier sample is refused" true
    (raises_invalid (fun () -> Sketch.observe w ~now:9.0 1.0));
  checki "the newer sample survives" 1
    (Metrics.hist_count (Sketch.query w ~now:10.0 ~window_s:1.0))

(* ---- detectors ------------------------------------------------------------------- *)

let detector_named = function
  | "ewma" -> Detect.ewma ()
  | "cusum" -> Detect.cusum ()
  | "ph" -> Detect.page_hinkley ()
  | s -> invalid_arg s

let det_gen = QCheck.Gen.oneofl [ "ewma"; "cusum"; "ph" ]

(* Rising edges of the verdicts over [xs], after a [last] verdict, and
   the final verdict. *)
let edges ?(last = Detect.Ok) d xs =
  List.fold_left
    (fun (n, last) x ->
      let v = Detect.step d x in
      ((if v = Detect.Alarm && last = Detect.Ok then n + 1 else n), v))
    (0, last) xs

let prop_constant_never_alarms =
  QCheck.Test.make ~count:200 ~name:"constant series never alarms"
    QCheck.(
      make
        ~print:(fun (k, v, n) -> Printf.sprintf "%s v=%g n=%d" k v n)
        QCheck.Gen.(
          triple det_gen (float_range (-1e6) 1e6) (int_range 10 300)))
    (fun (kind, v, n) -> fst (edges (detector_named kind) (List.init n (fun _ -> v))) = 0)

let prop_big_step_always_alarms =
  (* after a noiseless baseline, a step of >= 8 sigma-floors must alarm
     within a short window for both EWMA and CUSUM *)
  QCheck.Test.make ~count:200 ~name:"8-sigma step alarms within window"
    QCheck.(
      make
        ~print:(fun (k, base, step_mag) ->
          Printf.sprintf "%s base=%g step=%g" k base step_mag)
        QCheck.Gen.(
          triple
            (oneofl [ "ewma"; "cusum" ])
            (float_range (-1e3) 1e3)
            (float_range 1.0 1e3)))
    (fun (kind, base, step_mag) ->
      let d = detector_named kind in
      (* noisy-but-tame warmup: alternate +/- around base so sigma0 > 0 *)
      let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
      for i = 1 to 8 do
        ignore (Detect.step d (base +. noise i))
      done;
      (* sigma0 is ~0.01; an 8-sigma step is 0.08, scale by step_mag *)
      let stepped = base +. (0.08 *. step_mag) in
      fst (edges d (List.init 10 (fun _ -> stepped))) > 0)

let test_cusum_integrates_small_shift () =
  (* a 1.5-sigma sustained shift: inside the EWMA band, but CUSUM's sums
     integrate it past the threshold *)
  let d = Detect.cusum ~drift:0.5 ~threshold:5.0 () in
  let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
  for i = 1 to 8 do
    ignore (Detect.step d (10.0 +. noise i))
  done;
  checkb "sustained small shift caught" true
    (fst (edges d (List.init 30 (fun _ -> 10.016))) > 0)

let test_ewma_recenters_after_step () =
  let d = Detect.ewma ~alpha:0.3 ~k:4.0 () in
  let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
  for i = 1 to 8 do
    ignore (Detect.step d (1.0 +. noise i))
  done;
  checkb "step fires" true (Detect.step d 2.0 = Detect.Alarm);
  (* keep feeding the new level: the band re-centers and the alarm clears *)
  let n, last = edges ~last:Detect.Alarm d (List.init 50 (fun _ -> 2.0)) in
  checkb "new normal settles" true (last = Detect.Ok);
  checki "no second rising edge" 0 n

let test_detector_reset () =
  let stream =
    List.init 8 (fun i -> float_of_int (i mod 2)) @ List.init 10 (fun _ -> 100.0)
  in
  let d = Detect.cusum () in
  let before = fst (edges d stream) in
  checkb "alarmed before reset" true (before > 0);
  Detect.reset d;
  checki "reset clears samples" 0 (Detect.samples d);
  checkb "reset clears firing" true (Detect.step d 100.0 = Detect.Ok);
  Detect.reset d;
  checki "reset clears alarms" before (fst (edges d stream))

(* ---- rules ----------------------------------------------------------------------- *)

let mk_ctx store =
  { Rules.ctx_store = store; ctx_sketch = (fun _ _ -> None) }

let last_value store name =
  snd (Option.get (Series.latest (Option.get (Series.Store.find store ~name ~labels:[]))))

let test_rules_record_then_alert () =
  let store = Series.Store.create () in
  let eng =
    Rules.engine
      [ Rules.record "doubled" (Rules.Mul (Rules.Last ("x", []), Rules.Const 2.0));
        (* sees "doubled" in the same tick: declaration order *)
        Rules.alert "too-big" (Rules.Last ("doubled", [])) (Rules.Above 10.0) ]
  in
  let ctx = mk_ctx store in
  Series.Store.observe store ~now:0.0 ~name:"x" ~labels:[] 3.0;
  checki "no fire at 6" 0 (List.length (Rules.eval eng ctx ~now:0.0));
  Series.Store.observe store ~now:1.0 ~name:"x" ~labels:[] 6.0;
  let fired = Rules.eval eng ctx ~now:1.0 in
  checki "fires at 12" 1 (List.length fired);
  checks "fired name" "too-big" (List.hd fired).Rules.as_name;
  (* recording rule wrote the derived series *)
  checkf "derived value" 12.0 (last_value store "doubled")

let test_rules_for_s_holddown () =
  let store = Series.Store.create () in
  let eng =
    Rules.engine
      [ Rules.alert ~for_s:0.5 "hot" (Rules.Last ("t", [])) (Rules.Above 100.0) ]
  in
  let ctx = mk_ctx store in
  let tick now v =
    Series.Store.observe store ~now ~name:"t" ~labels:[] v;
    Rules.eval eng ctx ~now
  in
  checki "breach starts pending" 0 (List.length (tick 0.0 150.0));
  checki "still pending" 0 (List.length (tick 0.3 150.0));
  checki "held long enough: fires" 1 (List.length (tick 0.6 150.0));
  checki "stays firing, no new edge" 0 (List.length (tick 0.9 150.0));
  (* condition clears: pending resets, a new breach must re-hold *)
  ignore (tick 1.0 50.0);
  checki "cleared" 0 (List.length (Rules.firing eng));
  checki "fresh breach pends again" 0 (List.length (tick 1.1 150.0));
  checki "edges counted once so far" 1 (Rules.edges_total eng)

let test_rules_undefined_skips () =
  let store = Series.Store.create () in
  let eng =
    Rules.engine
      [ Rules.alert "ghost" (Rules.Last ("nope", [])) (Rules.Above 0.0);
        Rules.alert "div0"
          (Rules.Div (Rules.Const 1.0, Rules.Const 0.0))
          (Rules.Above (-1.0)) ]
  in
  let ctx = mk_ctx store in
  checki "nothing fires" 0 (List.length (Rules.eval eng ctx ~now:0.0));
  List.iter
    (fun (a : Rules.alert_state) ->
      checkb (a.Rules.as_name ^ " untouched") false (Alarm.firing a.Rules.as_alarm))
    (Rules.alert_states eng)

let test_rules_rate_and_window_exprs () =
  let store = Series.Store.create () in
  (* counter growing 10/s; mean/max/min over trailing 1 s *)
  for i = 0 to 20 do
    let t = 0.1 *. float_of_int i in
    Series.Store.observe store ~now:t ~name:"c" ~labels:[] (10.0 *. t)
  done;
  let eng =
    Rules.engine
      [ Rules.record "rate" (Rules.Rate_over ("c", [], 1.0));
        Rules.record "mx" (Rules.Max_over ("c", [], 1.0));
        Rules.record "mn" (Rules.Min_over ("c", [], 1.0)) ]
  in
  ignore (Rules.eval eng (mk_ctx store) ~now:2.0);
  checkf "rate ~10/s" 10.0 (last_value store "rate");
  checkf "max over window" 20.0 (last_value store "mx");
  checkf "min over window" 10.0 (last_value store "mn")

let test_rules_duplicate_alert_names () =
  (* one shared state would let the second rule drive (and clear) the
     first rule's alert *)
  let rules =
    [ Rules.alert "hot" (Rules.Last ("x", [])) (Rules.Above 10.0);
      Rules.alert "hot" (Rules.Last ("y", [])) (Rules.Above 10.0) ]
  in
  match Rules.engine rules with
  | _ -> Alcotest.fail "two alerts named hot were accepted"
  | exception Invalid_argument msg ->
      checkb "the message names the duplicate" true
        (Astring.String.is_infix ~affix:"\"hot\"" msg)

(* ---- facade + dashboard ---------------------------------------------------------- *)

let test_watch_scrape_and_alert () =
  let r = Metrics.create_registry () in
  let g = Metrics.gauge ~registry:r "depth" in
  let w =
    Watch.create
      ~config:{ Watch.default_config with Watch.wc_interval_s = 0.1 }
      ~rules:[ Rules.alert "deep" (Rules.Last ("depth", [])) (Rules.Above 5.0) ]
      ()
  in
  Watch.add_source w (Scrape.of_registry r);
  Metrics.set g 1.0;
  Watch.maybe_tick w ~now:0.0;
  checki "first call ticks" 1 (Watch.ticks w);
  Watch.maybe_tick w ~now:0.05;
  checki "interval gates" 1 (Watch.ticks w);
  Metrics.set g 9.0;
  Watch.maybe_tick w ~now:0.1;
  checki "second tick" 2 (Watch.ticks w);
  Alcotest.(check (list string)) "alert fired" [ "deep" ] (Watch.firing w);
  checkb "work attributed" true (Watch.work_s w > 0.0)

let test_watch_source_replace () =
  let w = Watch.create () in
  Watch.add_source w (Scrape.of_fn ~name:"s" (fun ~now:_ -> [ ("a", [], 1.0) ]));
  Watch.add_source w (Scrape.of_fn ~name:"s" (fun ~now:_ -> [ ("a", [], 2.0) ]));
  ignore (Watch.tick w ~now:0.0);
  let a = Option.get (Series.Store.find (Watch.store w) ~name:"a" ~labels:[]) in
  checki "not double-sampled" 1 (Series.samples a);
  checkf "replacement won" 2.0 (last_value (Watch.store w) "a")

let test_dashboard_deterministic () =
  let mk () =
    let r = Metrics.create_registry () in
    Metrics.set (Metrics.gauge ~registry:r "g") 3.0;
    let w = Watch.create () in
    Watch.add_source w (Scrape.of_registry r);
    Watch.observe w ~now:0.02 ~labels:[ ("t", "a") ] "lat" 0.004;
    Watch.observe w ~now:0.03 ~labels:[ ("t", "a") ] "lat" 0.005;
    ignore (Watch.tick w ~now:0.05);
    (Live.render w ~now:0.05, Live.render_json w ~now:0.05)
  in
  let t1, j1 = mk () in
  let t2, j2 = mk () in
  checks "text renders byte-identical" t1 t2;
  checks "json renders byte-identical" j1 j2;
  checkb "sketch visible" true
    (Astring.String.is_infix ~affix:"lat{" t1);
  (* json parses back *)
  let parsed = Everest_observe.Json.parse j1 in
  checkb "json roundtrips" true
    (Everest_observe.Json.member "series" parsed <> None)

(* ---- equivalence with the reference watch ---------------------------------------- *)

(* Random scripts of scrapes, sketch feeds and rule ticks at non-decreasing
   dyadic times (so window edges and hold-downs land exactly), run through
   the watch and through [Watch_reference]; after every tick the fired
   list, every alert's state, every series' samples and every sketch's
   windowed count and quantiles must agree bit for bit. *)

module Ref = Watch_reference

type g_expr =
  | G_const of float
  | G_last of string * Rules.labels
  | G_win of [ `Mean | `Max | `Min | `Rate ] * string * Rules.labels * float
  | G_quant of string * Rules.labels * float * float
  | G_bin of [ `Add | `Sub | `Mul | `Div ] * g_expr * g_expr

type g_cond =
  | G_above of float
  | G_below of float
  | G_outside of float * float
  | G_det of [ `Ewma | `Cusum | `Ph ] * float * int  (* sensitivity, warmup *)

type g_rule =
  | G_record of string * g_expr
  | G_alert of string * float * g_expr * g_cond

type g_event =
  | Scrape of string * Rules.labels * float
  | Feed of string * Rules.labels * float
  | Tick

type script = {
  sc_capacity : int;
  sc_bucket_s : float;
  sc_slots : int;
  sc_rules : g_rule list;
  sc_start : float list;  (* one sample per scraped series at t = 0 *)
  sc_events : (float * g_event) list;  (* (dt, event), from t = 0.5 *)
}

let scraped = [ ("a", []); ("b", [ ("zone", "x") ]) ]
let derived = List.init 4 (fun i -> (Printf.sprintf "r%d" i, []))
let sketched = [ ("lat", [ ("tenant", "acme") ]); ("q", []) ]
let windows = [ 1.0 /. 16.0; 0.125; 0.25; 0.5 ]

let rec lib_expr = function
  | G_const v -> Rules.Const v
  | G_last (n, l) -> Rules.Last (n, l)
  | G_win (`Mean, n, l, w) -> Rules.Mean_over (n, l, w)
  | G_win (`Max, n, l, w) -> Rules.Max_over (n, l, w)
  | G_win (`Min, n, l, w) -> Rules.Min_over (n, l, w)
  | G_win (`Rate, n, l, w) -> Rules.Rate_over (n, l, w)
  | G_quant (n, l, q, w) -> Rules.Quantile_over (n, l, q, w)
  | G_bin (`Add, a, b) -> Rules.Add (lib_expr a, lib_expr b)
  | G_bin (`Sub, a, b) -> Rules.Sub (lib_expr a, lib_expr b)
  | G_bin (`Mul, a, b) -> Rules.Mul (lib_expr a, lib_expr b)
  | G_bin (`Div, a, b) -> Rules.Div (lib_expr a, lib_expr b)

let rec ref_expr = function
  | G_const v -> Ref.Rules.Const v
  | G_last (n, l) -> Ref.Rules.Last (n, l)
  | G_win (`Mean, n, l, w) -> Ref.Rules.Mean_over (n, l, w)
  | G_win (`Max, n, l, w) -> Ref.Rules.Max_over (n, l, w)
  | G_win (`Min, n, l, w) -> Ref.Rules.Min_over (n, l, w)
  | G_win (`Rate, n, l, w) -> Ref.Rules.Rate_over (n, l, w)
  | G_quant (n, l, q, w) -> Ref.Rules.Quantile_over (n, l, q, w)
  | G_bin (`Add, a, b) -> Ref.Rules.Add (ref_expr a, ref_expr b)
  | G_bin (`Sub, a, b) -> Ref.Rules.Sub (ref_expr a, ref_expr b)
  | G_bin (`Mul, a, b) -> Ref.Rules.Mul (ref_expr a, ref_expr b)
  | G_bin (`Div, a, b) -> Ref.Rules.Div (ref_expr a, ref_expr b)

(* The same detector on both sides, from its kind, sensitivity and warmup. *)
let lib_det kind s warmup =
  match kind with
  | `Ewma -> Detect.ewma ~alpha:0.3 ~k:s ~warmup ()
  | `Cusum -> Detect.cusum ~drift:0.5 ~threshold:s ~warmup ()
  | `Ph -> Detect.page_hinkley ~delta:0.25 ~lambda:s ~warmup ()

let ref_det kind s warmup =
  match kind with
  | `Ewma -> Ref.Detect.ewma ~alpha:0.3 ~k:s ~warmup
  | `Cusum -> Ref.Detect.cusum ~drift:0.5 ~threshold:s ~warmup
  | `Ph -> Ref.Detect.page_hinkley ~delta:0.25 ~lambda:s ~warmup

let lib_rule = function
  | G_record (n, e) -> Rules.record n (lib_expr e)
  | G_alert (n, for_s, e, c) ->
      Rules.alert ~for_s n (lib_expr e)
        (match c with
        | G_above x -> Rules.Above x
        | G_below x -> Rules.Below x
        | G_outside (lo, hi) -> Rules.Outside (lo, hi)
        | G_det (k, s, w) -> Rules.Detector (lib_det k s w))

let ref_rule = function
  | G_record (n, e) ->
      Ref.Rules.Record { rc_name = n; rc_labels = []; rc_expr = ref_expr e }
  | G_alert (n, for_s, e, c) ->
      Ref.Rules.Alert
        { al_name = n; al_for_s = for_s; al_expr = ref_expr e;
          al_cond =
            (match c with
            | G_above x -> Ref.Rules.Above x
            | G_below x -> Ref.Rules.Below x
            | G_outside (lo, hi) -> Ref.Rules.Outside (lo, hi)
            | G_det (k, s, w) -> Ref.Rules.Detector (ref_det k s w)) }

let gen_script =
  let open QCheck.Gen in
  let value =
    oneof
      [ oneofl [ -3.0; -1.0; 0.0; 1.0; 2.0; 5.0; 10.0; 40.0 ];
        float_range (-50.0) 50.0 ]
  in
  let latency =
    oneof [ oneofl [ -1.0; 0.0; 0.001; 0.004; 0.02; 0.3 ]; float_range 0.0 1.0 ]
  in
  let window = oneofl windows in
  let expr =
    fix (fun self depth ->
        let leaf =
          frequency
            [ (1, map (fun v -> G_const v) value);
              (3, map (fun (n, l) -> G_last (n, l)) (oneofl (scraped @ derived)));
              ( 4,
                map3
                  (fun k (n, l) w -> G_win (k, n, l, w))
                  (oneofl [ `Mean; `Max; `Min; `Rate ])
                  (oneofl scraped) window );
              ( 3,
                map3
                  (fun (n, l) q w -> G_quant (n, l, q, w))
                  (oneofl sketched)
                  (oneofl [ 0.5; 0.9; 0.99 ])
                  (oneofl (0.05 :: windows)) ) ]
        in
        if depth = 0 then leaf
        else
          frequency
            [ (3, leaf);
              ( 1,
                map3
                  (fun op a b -> G_bin (op, a, b))
                  (oneofl [ `Add; `Sub; `Mul; `Div ])
                  (self (depth - 1)) (self (depth - 1)) ) ])
  in
  let cond =
    frequency
      [ (2, map (fun x -> G_above x) value);
        (2, map (fun x -> G_below x) value);
        (1, map2 (fun a b -> G_outside (Float.min a b, Float.max a b)) value value);
        ( 3,
          map3
            (fun k s w -> G_det (k, s, w))
            (oneofl [ `Ewma; `Cusum; `Ph ])
            (oneofl [ 1.0; 4.0 ]) (int_range 2 4) ) ]
  in
  let rule i =
    frequency
      [ (2, map (fun e -> G_record (Printf.sprintf "r%d" (i mod 4), e)) (expr 2));
        ( 3,
          map3
            (fun for_s e c -> G_alert (Printf.sprintf "alert%d" i, for_s, e, c))
            (oneofl [ 0.0; 0.0; 1.0 /. 64.0; 1.0 /. 16.0; 0.125 ])
            (expr 2) cond ) ]
  in
  let event =
    frequency
      [ (4, map2 (fun (n, l) v -> Scrape (n, l, v)) (oneofl scraped) value);
        (3, map2 (fun (n, l) v -> Feed (n, l, v)) (oneofl sketched) latency);
        (3, return Tick) ]
  in
  let dt = oneofl [ 0.0; 0.0; 1.0 /. 64.0; 1.0 /. 32.0; 3.0 /. 64.0; 0.125 ] in
  let* sc_capacity = oneofl [ 3; 8; 256 ] in
  let* sc_bucket_s = oneofl [ 1.0 /. 32.0; 0.05 ] in
  let* sc_slots = oneofl [ 4; 20 ] in
  let* n_rules = int_range 1 6 in
  let* sc_rules = flatten_l (List.init n_rules rule) in
  let* sc_start = list_repeat (List.length scraped) value in
  let* sc_events = list_size (int_range 5 60) (pair dt event) in
  return { sc_capacity; sc_bucket_s; sc_slots; sc_rules; sc_start; sc_events }

let print_script sc =
  let ev = function
    | Scrape (n, _, v) -> Printf.sprintf "%s=%g" n v
    | Feed (n, _, v) -> Printf.sprintf "%s<-%g" n v
    | Tick -> "tick"
  in
  Printf.sprintf "capacity=%d bucket=%g slots=%d rules=%d start=[%s] events=[%s]"
    sc.sc_capacity sc.sc_bucket_s sc.sc_slots (List.length sc.sc_rules)
    (String.concat ";" (List.map string_of_float sc.sc_start))
    (String.concat ";"
       (List.map (fun (dt, e) -> Printf.sprintf "+%g %s" dt (ev e)) sc.sc_events))

let bits = Int64.bits_of_float

(* Run one script through both; [Error] names the first divergence. *)
let run_against_reference sc =
  let store = Series.Store.create ~capacity:sc.sc_capacity () in
  let rstore = Ref.Series.Store.create ~capacity:sc.sc_capacity in
  let sketches =
    List.map
      (fun id -> (id, Sketch.create ~bucket_s:sc.sc_bucket_s ~slots:sc.sc_slots ()))
      sketched
  in
  let rsketches =
    List.map
      (fun id ->
        (id, Ref.Sketch.Windowed.create ~bucket_s:sc.sc_bucket_s ~slots:sc.sc_slots))
      sketched
  in
  let eng = Rules.engine (List.map lib_rule sc.sc_rules) in
  let reng = Ref.Rules.engine (List.map ref_rule sc.sc_rules) in
  let ctx =
    { Rules.ctx_store = store;
      ctx_sketch = (fun n l -> List.assoc_opt (n, l) sketches) }
  in
  let rctx =
    { Ref.Rules.ctx_store = rstore;
      ctx_sketch = (fun n l -> List.assoc_opt (n, l) rsketches) }
  in
  let scrape ~now (name, labels) v =
    Series.Store.observe store ~now ~name ~labels v;
    Ref.Series.Store.observe rstore ~now ~name ~labels v
  in
  let check ~now fired rfired =
    let names = List.map (fun (a : Rules.alert_state) -> a.Rules.as_name) in
    let rnames = List.map (fun (a : Ref.Rules.alert_state) -> a.as_name) in
    let alert (a : Rules.alert_state) (r : Ref.Rules.alert_state) =
      let al = a.Rules.as_alarm in
      String.equal a.Rules.as_name r.as_name
      && Alarm.firing al = r.as_firing
      && Alarm.edges al = r.as_edges
      && bits (Alarm.since al) = bits r.as_since
      && bits a.Rules.as_value = bits r.as_value
    in
    let series s (r : Ref.Series.t) =
      String.equal (Series.name s) r.s_name
      && Series.labels s = r.s_labels
      && Series.samples s = r.s_samples
      && List.map (fun (t, v) -> (bits t, bits v)) (Series.to_list s)
         = List.map
             (fun p -> (bits p.Ref.Series.pt_t, bits p.Ref.Series.pt_last))
             (Ref.Series.points r)
    in
    let sketch (id, sk) =
      let rwd = List.assoc id rsketches in
      Sketch.samples sk = Ref.Sketch.Windowed.samples rwd
      && List.for_all
           (fun window_s ->
             let h = Sketch.query sk ~now ~window_s in
             let rsk = Ref.Sketch.Windowed.query rwd ~now ~window_s in
             Metrics.hist_count h = Ref.Sketch.count rsk
             && List.for_all
                  (fun q ->
                    bits (Metrics.quantile h q) = bits (Ref.Sketch.quantile rsk q))
                  [ 0.0; 0.5; 0.9; 0.99; 1.0 ])
           [ Sketch.span_s sk; 0.125; 1.0 /. 32.0 ]
    in
    if names fired <> rnames rfired then Error "fired list"
    else if
      not (List.for_all2 alert (Rules.alert_states eng) (Ref.Rules.alert_states reng))
    then Error "alert state"
    else
      let ss = Series.Store.to_list store and rs = Ref.Series.Store.to_list rstore in
      if List.length ss <> List.length rs || not (List.for_all2 series ss rs) then
        Error "series samples"
      else if not (List.for_all sketch sketches) then Error "sketch window"
      else Ok ()
  in
  List.iter2 (fun id v -> scrape ~now:0.0 id v) scraped sc.sc_start;
  let rec go now ticks = function
    | [] -> Ok ticks
    | (dt, ev) :: rest -> (
        let now = now +. dt in
        match ev with
        | Scrape (n, l, v) ->
            scrape ~now (n, l) v;
            go now ticks rest
        | Feed (n, l, v) ->
            Sketch.observe (List.assoc (n, l) sketches) ~now v;
            Ref.Sketch.Windowed.observe (List.assoc (n, l) rsketches) ~now v;
            go now ticks rest
        | Tick -> (
            let rfired = Ref.Rules.eval reng rctx ~now in
            (* the old staircase served this window from a coarser tier *)
            if reng.Ref.Rules.beyond_ring > 0 then Ok ticks
            else
              let fired = Rules.eval eng ctx ~now in
              match check ~now fired rfired with
              | Ok () -> go now (ticks + 1) rest
              | Error what ->
                  Error (Printf.sprintf "%s differs at tick %d (t=%g)" what ticks now)))
  in
  go 0.5 0 sc.sc_events

let prop_matches_reference =
  QCheck.Test.make ~count:400 ~name:"scripts match the reference watch"
    (QCheck.make ~print:print_script gen_script)
    (fun sc ->
      match run_against_reference sc with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

let () =
  Alcotest.run "everest_watch"
    [
      ( "series",
        [ Alcotest.test_case "ring bounds" `Quick test_series_ring_bounds;
          Alcotest.test_case "time cannot run backwards" `Quick
            test_series_time_backwards;
          Alcotest.test_case "store sorted iteration" `Quick
            test_store_sorted_iteration ] );
      ( "sketch",
        [ QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_equals_union;
          Alcotest.test_case "quantile matches Metrics" `Quick
            test_sketch_quantile_matches_metrics;
          Alcotest.test_case "windowed rotation" `Quick test_windowed_rotation;
          Alcotest.test_case "time cannot run backwards" `Quick
            test_sketch_time_backwards ]
      );
      ( "detect",
        [ QCheck_alcotest.to_alcotest prop_constant_never_alarms;
          QCheck_alcotest.to_alcotest prop_big_step_always_alarms;
          Alcotest.test_case "cusum integrates small shift" `Quick
            test_cusum_integrates_small_shift;
          Alcotest.test_case "ewma recenters" `Quick
            test_ewma_recenters_after_step;
          Alcotest.test_case "reset" `Quick test_detector_reset ] );
      ( "rules",
        [ Alcotest.test_case "record then alert" `Quick
            test_rules_record_then_alert;
          Alcotest.test_case "for_s hold-down" `Quick test_rules_for_s_holddown;
          Alcotest.test_case "undefined skips" `Quick
            test_rules_undefined_skips;
          Alcotest.test_case "rate and window exprs" `Quick
            test_rules_rate_and_window_exprs;
          Alcotest.test_case "duplicate alert names rejected" `Quick
            test_rules_duplicate_alert_names ] );
      ( "watch",
        [ Alcotest.test_case "scrape and alert" `Quick
            test_watch_scrape_and_alert;
          Alcotest.test_case "source replace" `Quick test_watch_source_replace;
          Alcotest.test_case "dashboard deterministic" `Quick
            test_dashboard_deterministic ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
    ]
