(* Tests for everest_ml: RNG, linear algebra, dataset handling, MLP
   training, linear regression and metrics. *)

open Everest_ml

let checkb = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ---- rng ---------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    checkf 0.0 "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_uniform_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng 2.0 5.0 in
    checkb "in range" true (x >= 2.0 && x < 5.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 7 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian ~mu:3.0 ~sigma:2.0 rng) in
  checkb "mean near 3" true (Float.abs (Metrics.mean xs -. 3.0) < 0.1);
  checkb "std near 2" true (Float.abs (Metrics.stddev xs -. 2.0) < 0.1)

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    checkb "bounded" true (x >= 0 && x < 7)
  done

(* ---- linalg ------------------------------------------------------------------- *)

let of_array rows cols data =
  Linalg.init rows cols (fun i j -> data.((i * cols) + j))

(* A 2x3 by 3x2 product, one column of the result per matrix-vector product. *)
let test_matmul () =
  let a = of_array 2 3 [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let c0 = Linalg.matvec a [| 7.; 9.; 11. |] in
  let c1 = Linalg.matvec a [| 8.; 10.; 12. |] in
  checkb "result" true
    ([| c0.(0); c1.(0); c0.(1); c1.(1) |] = [| 58.; 64.; 139.; 154. |])

let test_solve () =
  (* A = [[2,1],[1,3]], b = [5,10] -> x = [1,3] *)
  let a = of_array 2 2 [| 2.; 1.; 1.; 3. |] in
  let x = Linalg.solve a [| 5.; 10. |] in
  checkf 1e-9 "x0" 1.0 x.(0);
  checkf 1e-9 "x1" 3.0 x.(1)

let test_solve_singular () =
  let a = of_array 2 2 [| 1.; 2.; 2.; 4. |] in
  match Linalg.solve a [| 1.; 2. |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "singular must fail"

let prop_solve_inverts =
  QCheck.Test.make ~count:50 ~name:"solve recovers x from A x"
    QCheck.(list_of_size (Gen.return 9) (float_range (-5.0) 5.0))
    (fun entries ->
      let a = of_array 3 3 (Array.of_list entries) in
      (* make it diagonally dominant so it is well-conditioned *)
      for i = 0 to 2 do
        Linalg.set a i i (Linalg.get a i i +. 20.0)
      done;
      let x = [| 1.0; -2.0; 0.5 |] in
      let b = Linalg.matvec a x in
      let x' = Linalg.solve a b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) x x')

(* ---- dataset ------------------------------------------------------------------- *)

let test_normalization () =
  let xs = [| [| 1.0; 100.0 |]; [| 3.0; 300.0 |]; [| 5.0; 500.0 |] |] in
  let norm = Dataset.fit_norm xs in
  let n = Array.map (Dataset.normalize norm) xs in
  let col j = Array.map (fun r -> r.(j)) n in
  checkb "zero mean" true (Float.abs (Metrics.mean (col 0)) < 1e-9);
  checkb "unit std col2" true (Float.abs (Metrics.stddev (col 1) -. 1.0) < 1e-9)

let test_batches_cover_all () =
  let rng = Rng.create 5 in
  let xs = Array.init 10 (fun i -> [| float_of_int i |]) in
  let ys = Array.init 10 (fun i -> [| float_of_int i |]) in
  let bs = Dataset.batches rng ~batch_size:3 xs ys in
  let total = List.fold_left (fun acc (bx, _) -> acc + Array.length bx) 0 bs in
  Alcotest.check Alcotest.int "all samples batched" 10 total

(* ---- mlp ----------------------------------------------------------------------- *)

let test_mlp_learns_xor () =
  let xs = [| [| 0.; 0. |]; [| 0.; 1. |]; [| 1.; 0. |]; [| 1.; 1. |] |] in
  let ys = [| [| 0. |]; [| 1. |]; [| 1. |]; [| 0. |] |] in
  let net = Mlp.create ~seed:3 ~layers:[ 2; 8; 1 ] ~activation:Mlp.Tanh () in
  let losses = Mlp.fit ~epochs:800 ~lr:0.05 ~batch_size:4 net xs ys in
  let final = List.nth losses (List.length losses - 1) in
  checkb "converged" true (final < 0.05);
  Array.iteri
    (fun i x ->
      let p = (Mlp.predict net x).(0) in
      checkb "classifies" true (Float.abs (p -. ys.(i).(0)) < 0.4))
    xs

let test_mlp_regression () =
  (* y = 2a - b + 1 *)
  let rng = Rng.create 17 in
  let xs = Array.init 200 (fun _ -> [| Rng.float rng; Rng.float rng |]) in
  let ys = Array.map (fun x -> [| (2.0 *. x.(0)) -. x.(1) +. 1.0 |]) xs in
  let net = Mlp.create ~seed:4 ~layers:[ 2; 8; 1 ] ~activation:Mlp.Relu () in
  ignore (Mlp.fit ~epochs:200 ~lr:0.02 net xs ys);
  let pred = Array.map (fun x -> (Mlp.predict net x).(0)) xs in
  let truth = Array.map (fun y -> y.(0)) ys in
  (* coefficient of determination: 1 - residual / total sum of squares *)
  let mu = Metrics.mean truth in
  let ss_tot = Array.fold_left (fun acc t -> acc +. ((t -. mu) ** 2.0)) 0.0 truth in
  let ss_res = Metrics.mse pred truth *. float_of_int (Array.length truth) in
  let r2 = 1.0 -. (ss_res /. ss_tot) in
  checkb "r2 high" true (r2 > 0.95)

let test_mlp_loss_decreases () =
  let rng = Rng.create 23 in
  let xs = Array.init 100 (fun _ -> [| Rng.float rng |]) in
  let ys = Array.map (fun x -> [| sin (6.0 *. x.(0)) |]) xs in
  let net = Mlp.create ~seed:6 ~layers:[ 1; 16; 1 ] ~activation:Mlp.Tanh () in
  let losses = Mlp.fit ~epochs:150 ~lr:0.05 net xs ys in
  let first = List.hd losses and last = List.nth losses (List.length losses - 1) in
  checkb "loss decreased" true (last < first /. 2.0)

(* The dataflow DSL prices an AI-model kernel at the MLP's inference cost:
   a multiply and an add per weight. *)
let test_mlp_flops () =
  let model = Everest_dsl.Dataflow.Ai_model { layers = [ 10; 20; 5 ]; activation = "relu" } in
  Alcotest.check Alcotest.int "flops" (2 * ((10 * 20) + (20 * 5)))
    (Everest_dsl.Dataflow.kernel_flops (Some model))

(* ---- linreg -------------------------------------------------------------------- *)

let test_linreg_exact () =
  let xs = Array.init 50 (fun i -> [| float_of_int i; float_of_int (i * i) |]) in
  let ys = Array.map (fun x -> (3.0 *. x.(0)) -. (0.5 *. x.(1)) +. 2.0) xs in
  let m = Linreg.fit xs ys in
  checkf 1e-6 "w0" 3.0 m.Linreg.weights.(0);
  checkf 1e-6 "w1" (-0.5) m.Linreg.weights.(1);
  checkf 1e-4 "bias" 2.0 m.Linreg.bias

(* ---- metrics ------------------------------------------------------------------- *)

let test_metrics_basic () =
  let pred = [| 1.0; 2.0; 3.0 |] and truth = [| 1.0; 1.0; 5.0 |] in
  checkf 1e-9 "mae" 1.0 (Metrics.mae pred truth);
  checkf 1e-9 "mse" (5.0 /. 3.0) (Metrics.mse pred truth);
  checkf 1e-9 "perfect mse" 0.0 (Metrics.mse truth truth)

let test_imbalance_asymmetry () =
  let truth = [| 10.0 |] in
  let over = Metrics.imbalance_cost [| 11.0 |] truth in
  let under = Metrics.imbalance_cost [| 9.0 |] truth in
  checkb "over-forecast costlier" true (over > under)

let test_confusion () =
  let pred = [| 1.0; 1.0; 0.0; 0.0 |] and truth = [| 1.0; 0.0; 1.0; 0.0 |] in
  let c = Metrics.exceedance_confusion ~threshold:0.5 pred truth in
  Alcotest.check Alcotest.int "tp" 1 c.Metrics.tp;
  Alcotest.check Alcotest.int "fp" 1 c.Metrics.fp;
  Alcotest.check Alcotest.int "fn" 1 c.Metrics.fn;
  Alcotest.check Alcotest.int "tn" 1 c.Metrics.tn;
  checkf 1e-9 "f1" 0.5 (Metrics.f1 c)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf 1e-9 "median" 3.0 (Metrics.percentile xs 0.5);
  checkf 1e-9 "min" 1.0 (Metrics.percentile xs 0.0);
  checkf 1e-9 "max" 5.0 (Metrics.percentile xs 1.0)

let () =
  Alcotest.run "everest_ml"
    [
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "uniform" `Quick test_rng_uniform_range;
          Alcotest.test_case "gaussian" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "int" `Quick test_rng_int_bounds ] );
      ( "linalg",
        [ Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "singular" `Quick test_solve_singular;
          QCheck_alcotest.to_alcotest prop_solve_inverts ] );
      ( "dataset",
        [ Alcotest.test_case "normalize" `Quick test_normalization;
          Alcotest.test_case "batches" `Quick test_batches_cover_all ] );
      ( "mlp",
        [ Alcotest.test_case "xor" `Slow test_mlp_learns_xor;
          Alcotest.test_case "regression" `Quick test_mlp_regression;
          Alcotest.test_case "loss decreases" `Quick test_mlp_loss_decreases;
          Alcotest.test_case "flops" `Quick test_mlp_flops ] );
      ("linreg", [ Alcotest.test_case "exact recovery" `Quick test_linreg_exact ]);
      ( "metrics",
        [ Alcotest.test_case "basic" `Quick test_metrics_basic;
          Alcotest.test_case "imbalance" `Quick test_imbalance_asymmetry;
          Alcotest.test_case "confusion" `Quick test_confusion;
          Alcotest.test_case "percentile" `Quick test_percentile ] );
    ]
