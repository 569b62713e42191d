(* Deterministic pseudo-random numbers for reproducible experiments.
   xorshift64* core with Box-Muller gaussians. *)

type t = { mutable state : int64; mutable spare : float option }

let create seed =
  { state = Int64.of_int (if seed = 0 then 0x9E3779B9 else seed); spare = None }

let next_int64 t =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  Int64.mul x 0x2545F4914F6CDD1DL

(* uniform in [0, 1) *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

let gaussian ?(mu = 0.0) ?(sigma = 1.0) t =
  match t.spare with
  | Some z ->
      t.spare <- None;
      mu +. (sigma *. z)
  | None ->
      let rec draw () =
        let u = float t in
        if u <= 1e-12 then draw () else u
      in
      let u1 = draw () and u2 = float t in
      let r = sqrt (-2.0 *. log u1) in
      let theta = 2.0 *. Float.pi *. u2 in
      t.spare <- Some (r *. sin theta);
      mu +. (sigma *. r *. cos theta)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
