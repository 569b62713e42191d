(* Multilayer perceptron with backpropagation and SGD + momentum.

   Stands in for the "deep learning model trying to characterize the complex
   input/output relationship of the given power plant" (use case A) and the
   traffic prediction model (use case C). *)

type activation = Relu | Tanh | Sigmoid | Linear

let act = function
  | Relu -> fun x -> Float.max 0.0 x
  | Tanh -> Float.tanh
  | Sigmoid -> fun x -> 1.0 /. (1.0 +. exp (-.x))
  | Linear -> Fun.id

let act_deriv = function
  | Relu -> fun y -> if y > 0.0 then 1.0 else 0.0
  | Tanh -> fun y -> 1.0 -. (y *. y)  (* in terms of output *)
  | Sigmoid -> fun y -> y *. (1.0 -. y)
  | Linear -> fun _ -> 1.0

type layer = {
  w : Linalg.mat;  (* out x in *)
  b : float array;
  vw : Linalg.mat;  (* momentum buffers *)
  vb : float array;
  activation : activation;
}

type t = { layers : layer list }

let create ?(seed = 7) ~layers:sizes ~activation () =
  match sizes with
  | [] | [ _ ] -> invalid_arg "mlp: need at least input and output sizes"
  | n_in :: rest ->
      let rng = Rng.create seed in
      let rec build prev = function
        | [] -> []
        | n :: tl ->
            let scale = sqrt (2.0 /. float_of_int prev) in
            let w =
              Linalg.init n prev (fun _ _ -> Rng.gaussian ~sigma:scale rng)
            in
            let layer =
              { w; b = Array.make n 0.0; vw = Linalg.mat n prev;
                vb = Array.make n 0.0;
                activation = (if tl = [] then Linear else activation) }
            in
            layer :: build n tl
      in
      { layers = build n_in rest }

let forward (net : t) (x : float array) =
  List.fold_left
    (fun v (l : layer) ->
      let z = Linalg.matvec l.w v in
      Array.mapi (fun i zi -> act l.activation (zi +. l.b.(i))) z)
    x net.layers

(* Forward keeping every activation (for backprop). *)
let forward_trace net x =
  let rec go v = function
    | [] -> [ v ]
    | (l : layer) :: rest ->
        let z = Linalg.matvec l.w v in
        let a = Array.mapi (fun i zi -> act l.activation (zi +. l.b.(i))) z in
        v :: go a rest
  in
  go x net.layers

(* Weight of the previous step in the SGD velocity buffers. *)
let momentum = 0.9

(* One SGD step on a batch; returns batch MSE loss. *)
let train_batch ?(lr = 0.01) (net : t) (xs : float array array)
    (ys : float array array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let n_layers = List.length net.layers in
    let grads_w =
      List.map (fun (l : layer) -> Linalg.mat l.w.Linalg.rows l.w.Linalg.cols) net.layers
    in
    let grads_b = List.map (fun (l : layer) -> Array.make (Array.length l.b) 0.0) net.layers in
    let loss = ref 0.0 in
    Array.iteri
      (fun si x ->
        let y = ys.(si) in
        let acts = forward_trace net x in
        let out = List.nth acts n_layers in
        (* output delta: dL/da for MSE, times activation' *)
        let delta =
          ref
            (Array.mapi
               (fun i o ->
                 let e = o -. y.(i) in
                 loss := !loss +. (e *. e);
                 2.0 *. e
                 *. act_deriv (List.nth net.layers (n_layers - 1)).activation o)
               out)
        in
        (* walk layers backwards *)
        for li = n_layers - 1 downto 0 do
          let l = List.nth net.layers li in
          let input = List.nth acts li in
          let gw = List.nth grads_w li and gb = List.nth grads_b li in
          Array.iteri
            (fun i d ->
              gb.(i) <- gb.(i) +. d;
              for j = 0 to Array.length input - 1 do
                Linalg.set gw i j (Linalg.get gw i j +. (d *. input.(j)))
              done)
            !delta;
          if li > 0 then begin
            let prev = List.nth net.layers (li - 1) in
            let prev_out = List.nth acts li in
            ignore prev;
            let new_delta =
              Array.init (Array.length input) (fun j ->
                  let acc = ref 0.0 in
                  Array.iteri
                    (fun i d -> acc := !acc +. (d *. Linalg.get l.w i j))
                    !delta;
                  !acc
                  *. act_deriv (List.nth net.layers (li - 1)).activation
                       prev_out.(j))
            in
            delta := new_delta
          end
        done)
      xs;
    (* apply momentum SGD *)
    let scale = lr /. float_of_int n in
    List.iteri
      (fun li (l : layer) ->
        let gw = List.nth grads_w li and gb = List.nth grads_b li in
        for i = 0 to l.w.Linalg.rows - 1 do
          for j = 0 to l.w.Linalg.cols - 1 do
            let v =
              (momentum *. Linalg.get l.vw i j) -. (scale *. Linalg.get gw i j)
            in
            Linalg.set l.vw i j v;
            Linalg.set l.w i j (Linalg.get l.w i j +. v)
          done;
          let vb = (momentum *. l.vb.(i)) -. (scale *. gb.(i)) in
          l.vb.(i) <- vb;
          l.b.(i) <- l.b.(i) +. vb
        done)
      net.layers;
    !loss /. float_of_int n
  end

let fit ?(epochs = 100) ?(lr = 0.01) ?(batch_size = 32) (net : t) xs ys =
  let rng = Rng.create 11 in
  let losses = ref [] in
  for _e = 1 to epochs do
    let epoch_loss = ref 0.0 and nb = ref 0 in
    List.iter
      (fun (bx, by) ->
        epoch_loss := !epoch_loss +. train_batch ~lr net bx by;
        incr nb)
      (Dataset.batches rng ~batch_size xs ys);
    losses := (!epoch_loss /. float_of_int (max 1 !nb)) :: !losses
  done;
  List.rev !losses

let predict = forward
