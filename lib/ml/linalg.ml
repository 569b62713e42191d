(* Small dense linear algebra used by the learning substrate. *)

type mat = { rows : int; cols : int; data : float array }

let mat rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let init rows cols f =
  let m = mat rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let matvec a (x : float array) =
  if a.cols <> Array.length x then invalid_arg "matvec: dims";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (get a i j *. x.(j))
      done;
      !acc)

(* Solve A x = b by Gaussian elimination with partial pivoting. *)
let solve a0 (b0 : float array) =
  let n = a0.rows in
  if a0.cols <> n || Array.length b0 <> n then invalid_arg "solve: dims";
  let a = { a0 with data = Array.copy a0.data } and b = Array.copy b0 in
  for col = 0 to n - 1 do
    (* pivot *)
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (get a r col) > Float.abs (get a !piv col) then piv := r
    done;
    if Float.abs (get a !piv col) < 1e-12 then failwith "solve: singular";
    if !piv <> col then begin
      for j = 0 to n - 1 do
        let tmp = get a col j in
        set a col j (get a !piv j);
        set a !piv j tmp
      done;
      let tmp = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- tmp
    end;
    for r = col + 1 to n - 1 do
      let f = get a r col /. get a col col in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          set a r j (get a r j -. (f *. get a col j))
        done;
        b.(r) <- b.(r) -. (f *. b.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get a i j *. x.(j))
    done;
    x.(i) <- !acc /. get a i i
  done;
  x
