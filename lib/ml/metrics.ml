(* Error metrics for the forecasting use cases. *)

let check_lengths a b =
  if Array.length a <> Array.length b then invalid_arg "metrics: length mismatch";
  if Array.length a = 0 then invalid_arg "metrics: empty"

let mse pred truth =
  check_lengths pred truth;
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. ((p -. truth.(i)) ** 2.0)) pred;
  !acc /. float_of_int (Array.length pred)

let rmse pred truth = sqrt (mse pred truth)

let mae pred truth =
  check_lengths pred truth;
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. Float.abs (p -. truth.(i))) pred;
  !acc /. float_of_int (Array.length pred)

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Asymmetric imbalance cost of energy-market forecasting: under-forecasting
   (producing more than sold) is cheaper than over-forecasting (buying
   balancing energy). *)
let imbalance_cost pred truth =
  let under_price = 20.0 and over_price = 60.0 in
  check_lengths pred truth;
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      let e = p -. truth.(i) in
      acc := !acc +. (if e > 0.0 then over_price *. e else under_price *. -.e))
    pred;
  !acc

(* Binary-event skill: detection of threshold exceedances. *)
type confusion = { tp : int; fp : int; fn : int; tn : int }

let exceedance_confusion ~threshold pred truth =
  check_lengths pred truth;
  let c = ref { tp = 0; fp = 0; fn = 0; tn = 0 } in
  Array.iteri
    (fun i p ->
      let pe = p >= threshold and te = truth.(i) >= threshold in
      c :=
        (match (pe, te) with
        | true, true -> { !c with tp = !c.tp + 1 }
        | true, false -> { !c with fp = !c.fp + 1 }
        | false, true -> { !c with fn = !c.fn + 1 }
        | false, false -> { !c with tn = !c.tn + 1 }))
    pred;
  !c

let precision c =
  if c.tp + c.fp = 0 then 1.0 else float_of_int c.tp /. float_of_int (c.tp + c.fp)

let recall c =
  if c.tp + c.fn = 0 then 1.0 else float_of_int c.tp /. float_of_int (c.tp + c.fn)

let f1 c =
  let p = precision c and r = recall c in
  if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

let percentile (xs : float array) q =
  if Array.length xs = 0 then invalid_arg "percentile: empty";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let stddev xs =
  let mu = mean xs in
  sqrt
    (Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 xs
    /. float_of_int (Array.length xs))
