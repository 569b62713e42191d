(* Dataset utilities: normalization, splits, batching. *)

type norm = { means : float array; stds : float array }

let fit_norm (xs : float array array) =
  let n = Array.length xs in
  if n = 0 then invalid_arg "fit_norm: empty";
  let d = Array.length xs.(0) in
  let means = Array.make d 0.0 and stds = Array.make d 0.0 in
  Array.iter (fun x -> Array.iteri (fun j v -> means.(j) <- means.(j) +. v) x) xs;
  Array.iteri (fun j m -> means.(j) <- m /. float_of_int n) means;
  Array.iter
    (fun x ->
      Array.iteri
        (fun j v -> stds.(j) <- stds.(j) +. ((v -. means.(j)) ** 2.0))
        x)
    xs;
  Array.iteri
    (fun j s -> stds.(j) <- Float.max 1e-9 (sqrt (s /. float_of_int n)))
    stds;
  { means; stds }

let normalize norm x =
  Array.mapi (fun j v -> (v -. norm.means.(j)) /. norm.stds.(j)) x

let batches rng ~batch_size xs ys =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Rng.shuffle rng idx;
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let k = min batch_size (n - i) in
      let bx = Array.init k (fun j -> xs.(idx.(i + j))) in
      let by = Array.init k (fun j -> ys.(idx.(i + j))) in
      go (i + k) ((bx, by) :: acc)
  in
  go 0 []
