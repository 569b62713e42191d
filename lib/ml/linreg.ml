(* Ridge-regularized linear regression via the normal equations — the simple
   learner used as a baseline against the MLP. *)

type t = { weights : float array; bias : float }

(* The ridge term keeps the normal equations solvable for collinear
   features. *)
let lambda = 1e-6

let fit (xs : float array array) (ys : float array) : t =
  let n = Array.length xs in
  if n = 0 then invalid_arg "linreg: empty";
  let d = Array.length xs.(0) in
  (* augmented design with bias column *)
  let dd = d + 1 in
  let xtx = Linalg.mat dd dd in
  let xty = Array.make dd 0.0 in
  Array.iteri
    (fun si x ->
      let aug = Array.append x [| 1.0 |] in
      for i = 0 to dd - 1 do
        xty.(i) <- xty.(i) +. (aug.(i) *. ys.(si));
        for j = 0 to dd - 1 do
          Linalg.set xtx i j (Linalg.get xtx i j +. (aug.(i) *. aug.(j)))
        done
      done)
    xs;
  for i = 0 to dd - 1 do
    Linalg.set xtx i i (Linalg.get xtx i i +. lambda)
  done;
  let sol = Linalg.solve xtx xty in
  { weights = Array.sub sol 0 d; bias = sol.(d) }

let predict (m : t) (x : float array) =
  let acc = ref 0.0 in
  Array.iteri (fun i w -> acc := !acc +. (w *. x.(i))) m.weights;
  !acc +. m.bias
