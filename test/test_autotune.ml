(* Tests for everest_autotune: knowledge base, goal satisfaction, selection
   with constraint relaxation, feature clustering and online adaptation. *)

open Everest_autotune

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let point variant ?(features = []) metrics =
  { Knowledge.variant; features; metrics }

(* A goal with constraints, as a record: nothing outside the tests builds
   one. *)
let constrained constraints objective = { Goal.constraints; objective }

let at_most ?(priority = 1) metric bound =
  { Goal.metric; cmp = Goal.Le; bound; priority }

let base_knowledge () =
  Knowledge.create "matmul"
    [ point "sw-naive" [ ("time_s", 1.0); ("energy_j", 10.0); ("error", 0.0) ];
      point "sw-tiled" [ ("time_s", 0.4); ("energy_j", 6.0); ("error", 0.0) ];
      point "fpga" [ ("time_s", 0.05); ("energy_j", 1.0); ("error", 0.0) ];
      point "approx" [ ("time_s", 0.02); ("energy_j", 0.5); ("error", 0.08) ] ]

(* ---- selection --------------------------------------------------------------- *)

let test_minimize_time () =
  let k = base_knowledge () in
  let g = Goal.make (Goal.Minimize "time_s") in
  let d = Option.get (Selector.select k g ~features:[]) in
  checks "fastest wins" "approx" d.Selector.point.Knowledge.variant

let test_constraint_filters () =
  let k = base_knowledge () in
  let g =
    constrained [ at_most "error" 0.01 ] (Goal.Minimize "time_s")
  in
  let d = Option.get (Selector.select k g ~features:[]) in
  checks "accuracy constraint excludes approx" "fpga"
    d.Selector.point.Knowledge.variant;
  checki "nothing relaxed" 0 (List.length d.Selector.relaxed)

let test_relaxation_order () =
  let k = base_knowledge () in
  (* impossible pair: time <= 0.01 (nothing) and error <= 0.01; time is the
     less important constraint (higher priority number) and must be
     relaxed first *)
  let g =
    constrained
      [ at_most ~priority:1 "error" 0.01; at_most ~priority:5 "time_s" 0.01 ]
      (Goal.Minimize "energy_j")
  in
  let d = Option.get (Selector.select k g ~features:[]) in
  checki "one relaxed" 1 (List.length d.Selector.relaxed);
  checks "time relaxed, not error" "time_s"
    (List.hd d.Selector.relaxed).Goal.metric;
  checks "error bound still honored" "fpga" d.Selector.point.Knowledge.variant

let test_maximize_and_combo () =
  let k =
    Knowledge.create "quality"
      [ point "a" [ ("quality", 0.9); ("time_s", 2.0) ];
        point "b" [ ("quality", 0.7); ("time_s", 0.5) ] ]
  in
  let g1 = Goal.make (Goal.Maximize "quality") in
  checks "maximize quality" "a"
    (Option.get (Selector.select k g1 ~features:[])).Selector.point.Knowledge.variant;
  (* combo: time * quality^-2 — b's 4x faster time beats a's quality edge *)
  let g2 = Goal.make (Goal.Combo [ ("time_s", 1.0); ("quality", -2.0) ]) in
  checks "combo tradeoff" "b"
    (Option.get (Selector.select k g2 ~features:[])).Selector.point.Knowledge.variant

let test_feature_clustering () =
  let k =
    Knowledge.create "kernel"
      [ point "small-opt" ~features:[ ("size", 1e3) ] [ ("time_s", 0.01) ];
        point "big-opt" ~features:[ ("size", 1e6) ] [ ("time_s", 0.5) ];
        point "big-alt" ~features:[ ("size", 1e6) ] [ ("time_s", 0.8) ] ]
  in
  let g = Goal.make (Goal.Minimize "time_s") in
  let d_small = Option.get (Selector.select k g ~features:[ ("size", 2e3) ]) in
  checks "small cluster" "small-opt" d_small.Selector.point.Knowledge.variant;
  let d_big = Option.get (Selector.select k g ~features:[ ("size", 9e5) ]) in
  checks "big cluster best" "big-opt" d_big.Selector.point.Knowledge.variant

let test_empty_knowledge () =
  let k = Knowledge.create "none" [] in
  checkb "no decision" true
    (Selector.select k (Goal.make (Goal.Minimize "time_s")) ~features:[] = None)

(* ---- adaptation ----------------------------------------------------------------- *)

let test_observation_updates () =
  let k = base_knowledge () in
  Knowledge.observe ~alpha:0.5 k ~variant:"fpga" ~features:[]
    ~measured:[ ("time_s", 0.25) ];
  let p =
    List.find (fun p -> p.Knowledge.variant = "fpga") k.Knowledge.points
  in
  (* EMA: 0.5*0.05 + 0.5*0.25 = 0.15 *)
  Alcotest.check (Alcotest.float 1e-9) "ema applied" 0.15
    (Option.get (Knowledge.metric p "time_s"))

(* One closed-loop step, as the orchestrator runs it: select, execute via
   [run], feed the measurement back. *)
let step t ~run =
  match Tuner.select t ~features:[] with
  | None -> None
  | Some d ->
      let variant = d.Selector.point.Knowledge.variant in
      let measured = run variant in
      Tuner.observe t ~variant ~features:[] ~measured;
      Some (variant, measured)

let test_adaptation_switches_variant () =
  (* the FPGA becomes contended: measured times degrade; the tuner must
     switch to the tiled software variant *)
  let k = base_knowledge () in
  let g = constrained [ at_most "error" 0.01 ] (Goal.Minimize "time_s") in
  let t = Tuner.create k g in
  let fpga_time = ref 0.05 in
  let run variant =
    match variant with
    | "fpga" -> [ ("time_s", !fpga_time); ("error", 0.0) ]
    | "sw-tiled" -> [ ("time_s", 0.4); ("error", 0.0) ]
    | "sw-naive" -> [ ("time_s", 1.0); ("error", 0.0) ]
    | _ -> [ ("time_s", 0.02); ("error", 0.08) ]
  in
  let first = Option.get (step t ~run) in
  checks "starts on fpga" "fpga" (fst first);
  (* degrade the FPGA drastically *)
  fpga_time := 3.0;
  let rec loop n last =
    if n = 0 then last
    else loop (n - 1) (Option.get (step t ~run))
  in
  let final = loop 8 first in
  checks "switched to software" "sw-tiled" (fst final);
  checkb "switch counted" true (t.Tuner.switches >= 1)

(* The tuner keeps its account in its own fields; it writes no metrics,
   not even to the process-wide registry. *)
let test_tuner_writes_no_metrics () =
  let module Metrics = Everest_telemetry.Metrics in
  Metrics.reset Metrics.default;
  let t =
    Tuner.create (base_knowledge ()) (Goal.make (Goal.Minimize "time_s"))
  in
  for _ = 1 to 5 do
    match Tuner.select t ~features:[] with
    | Some d ->
        Tuner.observe t ~variant:d.Selector.point.Knowledge.variant
          ~features:[] ~measured:[ ("time_s", 0.5) ]
    | None -> Alcotest.fail "no selection"
  done;
  checki "five selections" 5 t.Tuner.selections;
  checki "default registry empty" 0
    (List.length (Metrics.metrics Metrics.default))

(* Cumulative regret of the tuner's choices against an oracle that knows
   every step's true time: when the FPGA degrades at step 5, the tuner pays
   for one step and then moves to the best software variant. *)
let test_tuner_regret () =
  let goal = constrained [ at_most "error" 0.01 ] (Goal.Minimize "time_s") in
  let t = Tuner.create (base_knowledge ()) goal in
  let time s = function
    | "fpga" -> if s < 5 then 0.05 else 3.0
    | "sw-tiled" -> 0.4
    | _ -> 1.0
  in
  let regret = ref 0.0 in
  for s = 0 to 11 do
    let run v = [ ("time_s", time s v); ("error", 0.0) ] in
    let chosen, _ = Option.get (step t ~run) in
    let best =
      List.fold_left (fun m v -> Float.min m (time s v)) infinity
        [ "fpga"; "sw-tiled"; "sw-naive" ]
    in
    regret := !regret +. (time s chosen -. best)
  done;
  Alcotest.check (Alcotest.float 1e-9) "one step of regret" (3.0 -. 0.4) !regret

let prop_selection_satisfies_unrelaxed =
  QCheck.Test.make ~count:100
    ~name:"selected point satisfies all non-relaxed constraints"
    QCheck.(pair (float_range 0.0 1.5) (float_range 0.0 0.1))
    (fun (tbound, ebound) ->
      let k = base_knowledge () in
      let g =
        constrained
          [ at_most ~priority:1 "time_s" tbound; at_most ~priority:2 "error" ebound ]
          (Goal.Minimize "energy_j")
      in
      match Selector.select k g ~features:[] with
      | None -> false
      | Some d ->
          let active =
            List.filter
              (fun c -> not (List.memq c d.Selector.relaxed))
              g.Goal.constraints
          in
          List.for_all (Goal.satisfies d.Selector.point) active)

let () =
  Alcotest.run "everest_autotune"
    [
      ( "select",
        [ Alcotest.test_case "minimize" `Quick test_minimize_time;
          Alcotest.test_case "constraints" `Quick test_constraint_filters;
          Alcotest.test_case "relaxation" `Quick test_relaxation_order;
          Alcotest.test_case "max+combo" `Quick test_maximize_and_combo;
          Alcotest.test_case "feature clusters" `Quick test_feature_clustering;
          Alcotest.test_case "empty" `Quick test_empty_knowledge;
          QCheck_alcotest.to_alcotest prop_selection_satisfies_unrelaxed ] );
      ( "adapt",
        [ Alcotest.test_case "ema update" `Quick test_observation_updates;
          Alcotest.test_case "switches variant" `Quick test_adaptation_switches_variant;
          Alcotest.test_case "regret" `Quick test_tuner_regret;
          Alcotest.test_case "writes no metrics" `Quick
            test_tuner_writes_no_metrics ] );
    ]
