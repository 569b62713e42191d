(* Application knowledge: the operating points of a kernel.

   mARGOt-style (paper [11]): each code/hardware variant measured (or
   estimated by the compiler) under given data features yields an operating
   point mapping the variant to its expected metrics.  The runtime selector
   consults this knowledge; runtime observations refine it. *)

type metrics = (string * float) list

type point = {
  variant : string;
  features : (string * float) list;  (* e.g. "size" -> 4096, "density" -> 0.3 *)
  metrics : metrics;  (* e.g. "time_s", "energy_j", "error" *)
}

type t = { kernel : string; mutable points : point list }

let create kernel points = { kernel; points }

let add k p = k.points <- p :: k.points

let metric p name = List.assoc_opt name p.metrics

let metric_exn p name =
  match metric p name with
  | Some v -> v
  | None ->
      invalid_arg (Printf.sprintf "point %s has no metric %S" p.variant name)

(* Euclidean distance over the union of feature keys (missing = 0),
   normalized by the scale of each feature across the knowledge. *)
let feature_distance ?(scales = []) a b =
  let keys =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  sqrt
    (List.fold_left
       (fun acc key ->
         let va = Option.value ~default:0.0 (List.assoc_opt key a) in
         let vb = Option.value ~default:0.0 (List.assoc_opt key b) in
         let s = Option.value ~default:1.0 (List.assoc_opt key scales) in
         let s = if s = 0.0 then 1.0 else s in
         let d = (va -. vb) /. s in
         acc +. (d *. d))
       0.0 keys)

let feature_scales k =
  let tbl : (string, float * float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun (key, v) ->
          let lo, hi =
            Option.value ~default:(v, v) (Hashtbl.find_opt tbl key)
          in
          Hashtbl.replace tbl key (Float.min lo v, Float.max hi v))
        p.features)
    k.points;
  Hashtbl.fold
    (fun key (lo, hi) acc -> (key, Float.max 1e-12 (hi -. lo)) :: acc)
    tbl []

(* Points whose features are nearest to [features] (the mARGOt feature
   cluster): all points sharing the minimal feature vector distance. *)
let nearest_cluster k ~features =
  match k.points with
  | [] -> []
  | ps ->
      let scales = feature_scales k in
      let with_d =
        List.map (fun p -> (feature_distance ~scales p.features features, p)) ps
      in
      let dmin = List.fold_left (fun m (d, _) -> Float.min m d) infinity with_d in
      List.filter_map
        (fun (d, p) -> if d <= dmin +. 1e-12 then Some p else None)
        with_d

(* Exponential-moving-average update of the stored metrics of the point
   matching [variant] (and nearest features). *)
let observe ?(alpha = 0.3) k ~variant ~features ~measured =
  let scales = feature_scales k in
  let candidates = List.filter (fun p -> String.equal p.variant variant) k.points in
  match candidates with
  | [] ->
      add k { variant; features; metrics = measured }
  | _ ->
      let best =
        List.fold_left
          (fun acc p ->
            let d = feature_distance ~scales p.features features in
            match acc with
            | Some (bd, _) when bd <= d -> acc
            | _ -> Some (d, p))
          None candidates
      in
      let _, p = Option.get best in
      let updated =
        List.map
          (fun (name, old) ->
            match List.assoc_opt name measured with
            | Some v -> (name, ((1.0 -. alpha) *. old) +. (alpha *. v))
            | None -> (name, old))
          p.metrics
      in
      let extra =
        List.filter (fun (n, _) -> not (List.mem_assoc n p.metrics)) measured
      in
      p.metrics |> ignore;
      k.points <-
        List.map
          (fun q -> if q == p then { p with metrics = updated @ extra } else q)
          k.points
