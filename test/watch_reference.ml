(* The watch windowing and alerting code that [Everest_watch] replaced,
   kept as a test oracle: the raw tier of the staircase series rings, the
   standalone mergeable sketch with its windowed slot ring, the CUSUM
   detector, and the rules engine with its own alert lifecycle.  Each
   piece is the obvious fold over boxed points, so it is right by
   inspection; the watch properties run random scripts through both and
   compare every observable bit. *)

module Metrics = Everest_telemetry.Metrics

type labels = (string * string) list

let norm labels = List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

module Series = struct
  type point = { pt_t : float; pt_last : float }

  type t = {
    s_name : string;
    s_labels : labels;
    s_buf : point option array;
    mutable s_head : int;  (* next write position *)
    mutable s_len : int;
    mutable s_samples : int;
  }

  let create ~capacity ~name ~labels =
    { s_name = name; s_labels = norm labels;
      s_buf = Array.make capacity None; s_head = 0; s_len = 0; s_samples = 0 }

  let observe s ~t v =
    s.s_samples <- s.s_samples + 1;
    s.s_buf.(s.s_head) <- Some { pt_t = t; pt_last = v };
    s.s_head <- (s.s_head + 1) mod Array.length s.s_buf;
    if s.s_len < Array.length s.s_buf then s.s_len <- s.s_len + 1

  (* oldest first *)
  let points s =
    let cap = Array.length s.s_buf in
    let acc = ref [] in
    for i = 1 to s.s_len do
      match s.s_buf.((s.s_head - i + (2 * cap)) mod cap) with
      | Some p -> acc := p :: !acc
      | None -> ()
    done;
    !acc

  let latest s =
    match points s with [] -> None | ps -> Some (List.nth ps (List.length ps - 1))

  module Store = struct
    type series = t

    let mk_series = create

    type t = { tbl : (string * labels, series) Hashtbl.t; capacity : int }

    let create ~capacity = { tbl = Hashtbl.create 16; capacity }

    let find st ~name ~labels = Hashtbl.find_opt st.tbl (name, norm labels)

    let observe st ~now ~name ~labels v =
      let s =
        match find st ~name ~labels with
        | Some s -> s
        | None ->
            let s = mk_series ~capacity:st.capacity ~name ~labels in
            Hashtbl.replace st.tbl (name, norm labels) s;
            s
      in
      observe s ~t:now v

    let to_list st =
      Hashtbl.fold (fun _ s acc -> s :: acc) st.tbl []
      |> List.sort (fun a b ->
             match compare a.s_name b.s_name with
             | 0 -> compare a.s_labels b.s_labels
             | c -> c)
  end
end

module Sketch = struct
  type t = {
    mutable k_count : int;
    mutable k_sum : float;
    mutable k_min : float;
    mutable k_max : float;
    k_buckets : int array;
  }

  let create () =
    { k_count = 0; k_sum = 0.0; k_min = infinity; k_max = neg_infinity;
      k_buckets = Array.make Metrics.n_buckets 0 }

  let observe sk x =
    let x = Float.max 0.0 x in
    let i = Metrics.bucket_index x in
    sk.k_buckets.(i) <- sk.k_buckets.(i) + 1;
    sk.k_count <- sk.k_count + 1;
    sk.k_sum <- sk.k_sum +. x;
    sk.k_min <- Float.min sk.k_min x;
    sk.k_max <- Float.max sk.k_max x

  let count sk = sk.k_count

  let reset sk =
    sk.k_count <- 0;
    sk.k_sum <- 0.0;
    sk.k_min <- infinity;
    sk.k_max <- neg_infinity;
    Array.fill sk.k_buckets 0 (Array.length sk.k_buckets) 0

  let merge_into ~into src =
    into.k_count <- into.k_count + src.k_count;
    into.k_sum <- into.k_sum +. src.k_sum;
    into.k_min <- Float.min into.k_min src.k_min;
    into.k_max <- Float.max into.k_max src.k_max;
    Array.iteri
      (fun i c -> into.k_buckets.(i) <- into.k_buckets.(i) + c)
      src.k_buckets

  let quantile sk q =
    if sk.k_count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = q *. float_of_int sk.k_count in
      let upper = Metrics.bucket_upper in
      let rec scan i cum =
        if i >= Metrics.n_buckets then sk.k_max
        else
          let cum' = cum + sk.k_buckets.(i) in
          if float_of_int cum' >= rank && sk.k_buckets.(i) > 0 then begin
            let lower = if i = 0 then 0.0 else upper.(i - 1) in
            let frac =
              (rank -. float_of_int cum) /. float_of_int sk.k_buckets.(i)
            in
            let lo = Float.max lower (Metrics.bucket_min /. Metrics.bucket_ratio) in
            let v = lo *. ((upper.(i) /. lo) ** frac) in
            Float.min (Float.min v sk.k_max) upper.(i)
          end
          else scan (i + 1) cum'
      in
      scan 0 0
    end

  module Windowed = struct
    type sketch = t

    let mk_sketch = create

    type t = {
      wd_bucket_s : float;
      wd_slots : sketch array;
      wd_epoch : int array;
    }

    let create ~bucket_s ~slots =
      { wd_bucket_s = bucket_s;
        wd_slots = Array.init slots (fun _ -> mk_sketch ());
        wd_epoch = Array.make slots (-1) }

    let span_s w = w.wd_bucket_s *. float_of_int (Array.length w.wd_slots)
    let epoch_of w t = int_of_float (Float.floor (t /. w.wd_bucket_s))

    let observe w ~now v =
      let epoch = max 0 (epoch_of w now) in
      let slot = epoch mod Array.length w.wd_slots in
      if w.wd_epoch.(slot) <> epoch then begin
        reset w.wd_slots.(slot);
        w.wd_epoch.(slot) <- epoch
      end;
      observe w.wd_slots.(slot) v

    let query w ~now ~window_s =
      let into = mk_sketch () in
      let hi = epoch_of w now in
      let lo = epoch_of w (Float.max 0.0 (now -. window_s)) in
      let n = Array.length w.wd_slots in
      let lo = max lo (hi - n + 1) in
      for e = lo to hi do
        if e >= 0 then begin
          let slot = e mod n in
          if w.wd_epoch.(slot) = e then merge_into ~into w.wd_slots.(slot)
        end
      done;
      into
  end
end

module Detect = struct
  type t = {
    drift : float;
    threshold : float;
    mutable n : int;
    mutable wmean : float;
    mutable wm2 : float;
    mutable mean0 : float;
    mutable sigma0 : float;
    mutable g_up : float;
    mutable g_down : float;
  }

  let warmup = 8

  let cusum ~drift ~threshold =
    { drift; threshold; n = 0; wmean = 0.0; wm2 = 0.0; mean0 = 0.0;
      sigma0 = 0.0; g_up = 0.0; g_down = 0.0 }

  let sigma_floor mean0 sigma0 =
    Float.max sigma0 (1e-12 +. (1e-9 *. Float.abs mean0))

  let step d x =
    d.n <- d.n + 1;
    if d.n <= warmup then begin
      let delta = x -. d.wmean in
      d.wmean <- d.wmean +. (delta /. float_of_int d.n);
      d.wm2 <- d.wm2 +. (delta *. (x -. d.wmean));
      if d.n = warmup then begin
        d.mean0 <- d.wmean;
        d.sigma0 <- sqrt (Float.max 0.0 (d.wm2 /. float_of_int (warmup - 1)))
      end;
      false
    end
    else begin
      let sigma = sigma_floor d.mean0 d.sigma0 in
      let z = (x -. d.mean0) /. sigma in
      d.g_up <- Float.max 0.0 (d.g_up +. z -. d.drift);
      d.g_down <- Float.max 0.0 (d.g_down -. z -. d.drift);
      d.g_up > d.threshold || d.g_down > d.threshold
    end
end

module Rules = struct
  type expr =
    | Last of string * labels
    | Quantile_over of string * labels * float * float

  type cond = Below of float | Detector of Detect.t

  type rule =
    | Record of { rc_name : string; rc_expr : expr }
    | Alert of { al_name : string; al_expr : expr; al_cond : cond }

  type ctx = {
    ctx_store : Series.Store.t;
    ctx_sketch : string -> labels -> Sketch.Windowed.t option;
  }

  type alert_state = {
    as_name : string;
    mutable as_firing : bool;
    mutable as_edges : int;
    mutable as_since : float;
    mutable as_value : float;
  }

  type t = { e_rules : rule list; e_alerts : (string * alert_state) list }

  let engine rules =
    { e_rules = rules;
      e_alerts =
        List.filter_map
          (function
            | Record _ -> None
            | Alert a ->
                Some
                  ( a.al_name,
                    { as_name = a.al_name; as_firing = false; as_edges = 0;
                      as_since = Float.nan; as_value = 0.0 } ))
          rules }

  let alert_states t = List.map snd t.e_alerts

  let eval_expr ctx ~now = function
    | Last (name, labels) -> (
        match Series.Store.find ctx.ctx_store ~name ~labels with
        | None -> None
        | Some s -> Option.map (fun p -> p.Series.pt_last) (Series.latest s))
    | Quantile_over (name, labels, q, w) -> (
        match ctx.ctx_sketch name labels with
        | None -> None
        | Some wd ->
            let sk = Sketch.Windowed.query wd ~now ~window_s:w in
            if Sketch.count sk = 0 then None else Some (Sketch.quantile sk q))

  let eval t ctx ~now =
    let fired = ref [] in
    List.iter
      (fun rule ->
        match rule with
        | Record { rc_name; rc_expr } -> (
            match eval_expr ctx ~now rc_expr with
            | None -> ()
            | Some v ->
                Series.Store.observe ctx.ctx_store ~now ~name:rc_name ~labels:[] v)
        | Alert { al_name; al_expr; al_cond } -> (
            match eval_expr ctx ~now al_expr with
            | None -> ()
            | Some v ->
                let st = List.assoc al_name t.e_alerts in
                st.as_value <- v;
                let holds =
                  match al_cond with
                  | Below x -> v < x
                  | Detector d -> Detect.step d v
                in
                if holds then begin
                  if not st.as_firing then begin
                    st.as_firing <- true;
                    st.as_since <- now;
                    st.as_edges <- st.as_edges + 1;
                    fired := st :: !fired
                  end
                end
                else if st.as_firing then begin
                  st.as_firing <- false;
                  st.as_since <- Float.nan
                end))
      t.e_rules;
    List.rev !fired
end
