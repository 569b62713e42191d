(* everest_watch: the series ring, the windowed sketch and histogram merge
   laws, the CUSUM detector (never-alarm / always-alarm properties), rules,
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
    "the ring keeps both tied samples"
    [ (5.0, 1.0); (5.0, 2.0) ]
    (Series.to_list s)

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
  && Float.equal a.Metrics.h_min b.Metrics.h_min
  && Float.equal a.Metrics.h_max b.Metrics.h_max
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
  checkf "max is recent" 2.0 h.Metrics.h_max

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

(* Rising edges of the verdicts over [xs], after a [last] verdict. *)
let edges ?(last = false) d xs =
  fst
    (List.fold_left
       (fun (n, last) x ->
         let v = Detect.step d x in
         ((if v && not last then n + 1 else n), v))
       (0, last) xs)

let prop_constant_never_alarms =
  QCheck.Test.make ~count:200 ~name:"constant series never alarms"
    QCheck.(
      make
        ~print:(fun (v, n) -> Printf.sprintf "v=%g n=%d" v n)
        QCheck.Gen.(pair (float_range (-1e6) 1e6) (int_range 10 300)))
    (fun (v, n) -> edges (Detect.cusum ()) (List.init n (fun _ -> v)) = 0)

let prop_big_step_always_alarms =
  (* after a noiseless baseline, a step of >= 8 sigma-floors must alarm
     within a short window *)
  QCheck.Test.make ~count:200 ~name:"8-sigma step alarms within window"
    QCheck.(
      make
        ~print:(fun (base, step_mag) ->
          Printf.sprintf "base=%g step=%g" base step_mag)
        QCheck.Gen.(pair (float_range (-1e3) 1e3) (float_range 1.0 1e3)))
    (fun (base, step_mag) ->
      let d = Detect.cusum () in
      (* noisy-but-tame warmup: alternate +/- around base so sigma0 > 0 *)
      let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
      for i = 1 to 8 do
        ignore (Detect.step d (base +. noise i))
      done;
      (* sigma0 is ~0.01; an 8-sigma step is 0.08, scale by step_mag *)
      let stepped = base +. (0.08 *. step_mag) in
      edges d (List.init 10 (fun _ -> stepped)) > 0)

let test_cusum_integrates_small_shift () =
  (* a 1.5-sigma sustained shift: well inside a 4-sigma band, but CUSUM's
     sums integrate it past the threshold *)
  let d = Detect.cusum ~drift:0.5 ~threshold:5.0 () in
  let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
  for i = 1 to 8 do
    ignore (Detect.step d (10.0 +. noise i))
  done;
  checkb "sustained small shift caught" true
    (edges d (List.init 30 (fun _ -> 10.016)) > 0)

(* ---- rules ----------------------------------------------------------------------- *)

let mk_ctx ?(sketches = []) store =
  { Rules.ctx_store = store;
    ctx_sketch = (fun name labels -> List.assoc_opt (name, labels) sketches) }

let last_value store name =
  snd (Option.get (Series.latest (Option.get (Series.Store.find store ~name ~labels:[]))))

let test_rules_record_then_alert () =
  let store = Series.Store.create () in
  let lat = Sketch.create () in
  let eng =
    Rules.engine
      [ Rules.record "lat:p99" (Rules.Quantile_over ("lat", [], 0.99, 0.2));
        (* sees "lat:p99" in the same tick: declaration order *)
        Rules.alert "fast" (Rules.Last ("lat:p99", [])) (Rules.Below 0.01) ]
  in
  let ctx = mk_ctx ~sketches:[ (("lat", []), lat) ] store in
  Sketch.observe lat ~now:0.0 0.1;
  checki "no fire at 100 ms" 0 (List.length (Rules.eval eng ctx ~now:0.0));
  (* the 100 ms sample has left the 0.2 s window *)
  Sketch.observe lat ~now:1.0 0.002;
  let fired = Rules.eval eng ctx ~now:1.0 in
  checki "fires at 2 ms" 1 (List.length fired);
  checks "fired name" "fast" (List.hd fired).Rules.as_name;
  (* recording rule wrote the derived series *)
  checkf "derived value"
    (Metrics.quantile (Sketch.query lat ~now:1.0 ~window_s:0.2) 0.99)
    (last_value store "lat:p99")

let test_rules_undefined_skips () =
  let store = Series.Store.create () in
  let idle = Sketch.create () in
  Sketch.observe idle ~now:0.0 1.0;
  let eng =
    Rules.engine
      [ Rules.alert "ghost" (Rules.Last ("nope", [])) (Rules.Below 1.0);
        Rules.alert "no-sketch"
          (Rules.Quantile_over ("missing", [], 0.5, 1.0))
          (Rules.Below 1.0);
        Rules.alert "empty-window"
          (Rules.Quantile_over ("idle", [], 0.5, 0.1))
          (Rules.Below 2.0) ]
  in
  let ctx = mk_ctx ~sketches:[ (("idle", []), idle) ] store in
  checki "nothing fires" 0 (List.length (Rules.eval eng ctx ~now:5.0));
  List.iter
    (fun (a : Rules.alert_state) ->
      checkb (a.Rules.as_name ^ " untouched") false (Alarm.firing a.Rules.as_alarm);
      checkf (a.Rules.as_name ^ " value untouched") 0.0 a.Rules.as_value)
    (Rules.alert_states eng)

let test_rules_duplicate_alert_names () =
  (* one shared state would let the second rule drive (and clear) the
     first rule's alert *)
  let rules =
    [ Rules.alert "hot" (Rules.Last ("x", [])) (Rules.Below 10.0);
      Rules.alert "hot" (Rules.Last ("y", [])) (Rules.Below 10.0) ]
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
      ~rules:[ Rules.alert "shallow" (Rules.Last ("depth", [])) (Rules.Below 5.0) ]
      ()
  in
  Watch.add_source w (Scrape.of_registry r);
  Metrics.set g 9.0;
  Watch.maybe_tick w ~now:0.0;
  checki "first call ticks" 1 (Watch.ticks w);
  Watch.maybe_tick w ~now:0.05;
  checki "interval gates" 1 (Watch.ticks w);
  Metrics.set g 1.0;
  Watch.maybe_tick w ~now:0.1;
  checki "second tick" 2 (Watch.ticks w);
  Alcotest.(check (list string)) "alert fired" [ "shallow" ] (Watch.firing w);
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
   dyadic times (so ties and window edges land exactly), run through the
   watch and through [Watch_reference]; after every tick the fired list,
   every alert's state, every series' samples and every sketch's windowed
   count and quantiles must agree bit for bit.  Expressions read scraped
   and derived series (a derived one is undefined until a recording rule
   first writes it) and sketches, one of which is never fed (always
   undefined); small rings and short sketch spans make both wrap. *)

module Ref = Watch_reference

type g_expr =
  | G_last of string * Rules.labels
  | G_quant of string * Rules.labels * float * float

type g_cond = G_below of float | G_cusum of float  (* threshold *)

type g_rule =
  | G_record of string * g_expr
  | G_alert of string * g_expr * g_cond

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
let idle = ("idle", [])  (* a sketch nothing feeds: the lookup misses *)
let windows = [ 1.0 /. 16.0; 0.125; 0.25; 0.5 ]

let lib_expr = function
  | G_last (n, l) -> Rules.Last (n, l)
  | G_quant (n, l, q, w) -> Rules.Quantile_over (n, l, q, w)

let ref_expr = function
  | G_last (n, l) -> Ref.Rules.Last (n, l)
  | G_quant (n, l, q, w) -> Ref.Rules.Quantile_over (n, l, q, w)

let lib_rule = function
  | G_record (n, e) -> Rules.record n (lib_expr e)
  | G_alert (n, e, c) ->
      Rules.alert n (lib_expr e)
        (match c with
        | G_below x -> Rules.Below x
        | G_cusum h -> Rules.Detector (Detect.cusum ~drift:0.5 ~threshold:h ()))

let ref_rule = function
  | G_record (n, e) -> Ref.Rules.Record { rc_name = n; rc_expr = ref_expr e }
  | G_alert (n, e, c) ->
      Ref.Rules.Alert
        { al_name = n; al_expr = ref_expr e;
          al_cond =
            (match c with
            | G_below x -> Ref.Rules.Below x
            | G_cusum h ->
                Ref.Rules.Detector (Ref.Detect.cusum ~drift:0.5 ~threshold:h)) }

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
  let expr =
    frequency
      [ (3, map (fun (n, l) -> G_last (n, l)) (oneofl (scraped @ derived)));
        ( 3,
          map3
            (fun (n, l) q w -> G_quant (n, l, q, w))
            (frequency [ (4, oneofl sketched); (1, return idle) ])
            (oneofl [ 0.5; 0.9; 0.99 ])
            (oneofl (0.05 :: windows)) ) ]
  in
  let cond =
    frequency
      [ (2, map (fun x -> G_below x) value);
        (3, map (fun h -> G_cusum h) (oneofl [ 1.0; 5.0 ])) ]
  in
  let rule i =
    frequency
      [ (2, map (fun e -> G_record (Printf.sprintf "r%d" (i mod 4), e)) expr);
        ( 3,
          map2
            (fun e c -> G_alert (Printf.sprintf "alert%d" i, e, c))
            expr cond ) ]
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
  (* long enough that most CUSUM alerts get past their 8 baseline ticks *)
  let* sc_events = list_size (int_range 5 120) (pair dt event) in
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
      List.for_all
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
            test_cusum_integrates_small_shift ] );
      ( "rules",
        [ Alcotest.test_case "record then alert" `Quick
            test_rules_record_then_alert;
          Alcotest.test_case "undefined skips" `Quick
            test_rules_undefined_skips;
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
