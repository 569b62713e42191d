(* The watch windowing and alerting code that [Everest_watch] replaced,
   kept as a test oracle: the raw tier of the staircase series rings, the
   standalone mergeable sketch with its windowed slot ring, the detectors
   with their own firing flag and rising-edge count, and the rules engine
   with its own alert lifecycle.  Each piece is the obvious fold over
   boxed points, so it is right by inspection; the watch properties run
   random scripts through both and compare every observable bit.

   Only tier 0 of the old series is kept.  The old window reads fell back
   to a coarser tier when the raw ring did not reach back to the window
   start, so the engine counts such reads in [beyond_ring]; a script is
   compared only up to the first tick that makes one. *)

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

  (* Whether the raw ring still holds a point at or before [t0]: the only
     case in which the old staircase read served a window from it. *)
  let reaches s ~t0 =
    match points s with { pt_t; _ } :: _ -> pt_t <= t0 | [] -> false

  let between s ~t0 ~t1 =
    List.filter (fun p -> p.pt_t >= t0 && p.pt_t <= t1) (points s)

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
      mutable wd_samples : int;
    }

    let create ~bucket_s ~slots =
      { wd_bucket_s = bucket_s;
        wd_slots = Array.init slots (fun _ -> mk_sketch ());
        wd_epoch = Array.make slots (-1);
        wd_samples = 0 }

    let span_s w = w.wd_bucket_s *. float_of_int (Array.length w.wd_slots)
    let samples w = w.wd_samples
    let epoch_of w t = int_of_float (Float.floor (t /. w.wd_bucket_s))

    let observe w ~now v =
      let epoch = max 0 (epoch_of w now) in
      let slot = epoch mod Array.length w.wd_slots in
      if w.wd_epoch.(slot) <> epoch then begin
        reset w.wd_slots.(slot);
        w.wd_epoch.(slot) <- epoch
      end;
      w.wd_samples <- w.wd_samples + 1;
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
  type verdict = Ok | Alarm

  type core = {
    d_warmup : int;
    mutable d_n : int;
    mutable d_wmean : float;
    mutable d_wm2 : float;
    mutable d_mean0 : float;
    mutable d_sigma0 : float;
    mutable d_firing : bool;
    mutable d_alarms : int;
  }

  type algo =
    | Ewma of { alpha : float; k : float; mutable ewma : float }
    | Cusum of {
        drift : float;
        threshold : float;
        mutable g_up : float;
        mutable g_down : float;
      }
    | Page_hinkley of {
        delta : float;
        lambda : float;
        mutable ph_mean : float;
        mutable ph_n : int;
        mutable u_up : float;
        mutable u_up_min : float;
        mutable u_down : float;
        mutable u_down_max : float;
      }

  type t = { core : core; algo : algo }

  let mk_core warmup =
    { d_warmup = warmup; d_n = 0; d_wmean = 0.0; d_wm2 = 0.0; d_mean0 = 0.0;
      d_sigma0 = 0.0; d_firing = false; d_alarms = 0 }

  let ewma ~alpha ~k ~warmup =
    { core = mk_core warmup; algo = Ewma { alpha; k; ewma = 0.0 } }

  let cusum ~drift ~threshold ~warmup =
    { core = mk_core warmup;
      algo = Cusum { drift; threshold; g_up = 0.0; g_down = 0.0 } }

  let page_hinkley ~delta ~lambda ~warmup =
    { core = mk_core warmup;
      algo =
        Page_hinkley
          { delta; lambda; ph_mean = 0.0; ph_n = 0; u_up = 0.0;
            u_up_min = 0.0; u_down = 0.0; u_down_max = 0.0 } }

  let sigma_floor mean0 sigma0 =
    Float.max sigma0 (1e-12 +. (1e-9 *. Float.abs mean0))

  let step d x =
    let c = d.core in
    c.d_n <- c.d_n + 1;
    if c.d_n <= c.d_warmup then begin
      let delta = x -. c.d_wmean in
      c.d_wmean <- c.d_wmean +. (delta /. float_of_int c.d_n);
      c.d_wm2 <- c.d_wm2 +. (delta *. (x -. c.d_wmean));
      if c.d_n = c.d_warmup then begin
        c.d_mean0 <- c.d_wmean;
        c.d_sigma0 <-
          sqrt (Float.max 0.0 (c.d_wm2 /. float_of_int (c.d_warmup - 1)));
        match d.algo with
        | Ewma e -> e.ewma <- c.d_mean0
        | Cusum _ -> ()
        | Page_hinkley p -> p.ph_mean <- 0.0
      end;
      Ok
    end
    else begin
      let sigma = sigma_floor c.d_mean0 c.d_sigma0 in
      let alarmed =
        match d.algo with
        | Ewma e ->
            let dev = Float.abs (x -. e.ewma) in
            let out = dev > e.k *. sigma in
            e.ewma <- e.ewma +. (e.alpha *. (x -. e.ewma));
            out
        | Cusum cu ->
            let z = (x -. c.d_mean0) /. sigma in
            cu.g_up <- Float.max 0.0 (cu.g_up +. z -. cu.drift);
            cu.g_down <- Float.max 0.0 (cu.g_down -. z -. cu.drift);
            cu.g_up > cu.threshold || cu.g_down > cu.threshold
        | Page_hinkley p ->
            p.ph_n <- p.ph_n + 1;
            p.ph_mean <- p.ph_mean +. ((x -. p.ph_mean) /. float_of_int p.ph_n);
            let dev = x -. p.ph_mean in
            p.u_up <- p.u_up +. dev -. (p.delta *. sigma);
            p.u_up_min <- Float.min p.u_up_min p.u_up;
            p.u_down <- p.u_down +. dev +. (p.delta *. sigma);
            p.u_down_max <- Float.max p.u_down_max p.u_down;
            p.u_up -. p.u_up_min > p.lambda *. sigma
            || p.u_down_max -. p.u_down > p.lambda *. sigma
      in
      let was = c.d_firing in
      c.d_firing <- alarmed;
      if alarmed && not was then c.d_alarms <- c.d_alarms + 1;
      if alarmed then Alarm else Ok
    end
end

module Rules = struct
  type expr =
    | Const of float
    | Last of string * labels
    | Mean_over of string * labels * float
    | Max_over of string * labels * float
    | Min_over of string * labels * float
    | Rate_over of string * labels * float
    | Quantile_over of string * labels * float * float
    | Add of expr * expr
    | Sub of expr * expr
    | Mul of expr * expr
    | Div of expr * expr

  type cond =
    | Above of float
    | Below of float
    | Outside of float * float
    | Detector of Detect.t

  type rule =
    | Record of { rc_name : string; rc_labels : labels; rc_expr : expr }
    | Alert of {
        al_name : string;
        al_expr : expr;
        al_cond : cond;
        al_for_s : float;
      }

  type ctx = {
    ctx_store : Series.Store.t;
    ctx_sketch : string -> labels -> Sketch.Windowed.t option;
  }

  type alert_state = {
    as_name : string;
    mutable as_pending_since : float;
    mutable as_firing : bool;
    mutable as_edges : int;
    mutable as_since : float;
    mutable as_value : float;
  }

  type t = {
    e_rules : rule list;
    e_alerts : (string * alert_state) list;
    mutable beyond_ring : int;  (* window reads the raw ring did not reach *)
  }

  let engine rules =
    { e_rules = rules;
      e_alerts =
        List.filter_map
          (function
            | Record _ -> None
            | Alert a ->
                Some
                  ( a.al_name,
                    { as_name = a.al_name; as_pending_since = Float.nan;
                      as_firing = false; as_edges = 0; as_since = Float.nan;
                      as_value = 0.0 } ))
          rules;
      beyond_ring = 0 }

  let alert_states t = List.map snd t.e_alerts

  let rec eval_expr t ctx ~now = function
    | Const v -> Some v
    | Last (name, labels) -> (
        match Series.Store.find ctx.ctx_store ~name ~labels with
        | None -> None
        | Some s -> Option.map (fun p -> p.Series.pt_last) (Series.latest s))
    | Mean_over (name, labels, w) ->
        window_agg t ctx ~now name labels w (fun ps ->
            let n = List.length ps in
            let sum = List.fold_left (fun a p -> a +. p.Series.pt_last) 0.0 ps in
            Some (sum /. float_of_int n))
    | Max_over (name, labels, w) ->
        window_agg t ctx ~now name labels w (fun ps ->
            Some
              (List.fold_left
                 (fun a p -> Float.max a p.Series.pt_last)
                 neg_infinity ps))
    | Min_over (name, labels, w) ->
        window_agg t ctx ~now name labels w (fun ps ->
            Some
              (List.fold_left
                 (fun a p -> Float.min a p.Series.pt_last)
                 infinity ps))
    | Rate_over (name, labels, w) ->
        window_agg t ctx ~now name labels w (fun ps ->
            match ps with
            | [] | [ _ ] -> None
            | first :: _ ->
                let last = List.nth ps (List.length ps - 1) in
                let dt = last.Series.pt_t -. first.Series.pt_t in
                if dt <= 0.0 then None
                else Some ((last.Series.pt_last -. first.Series.pt_last) /. dt))
    | Quantile_over (name, labels, q, w) -> (
        match ctx.ctx_sketch name labels with
        | None -> None
        | Some wd ->
            let sk = Sketch.Windowed.query wd ~now ~window_s:w in
            if Sketch.count sk = 0 then None else Some (Sketch.quantile sk q))
    | Add (a, b) -> lift2 t ctx ~now ( +. ) a b
    | Sub (a, b) -> lift2 t ctx ~now ( -. ) a b
    | Mul (a, b) -> lift2 t ctx ~now ( *. ) a b
    | Div (a, b) -> (
        match (eval_expr t ctx ~now a, eval_expr t ctx ~now b) with
        | Some x, Some y when y <> 0.0 -> Some (x /. y)
        | _ -> None)

  and lift2 t ctx ~now op a b =
    match (eval_expr t ctx ~now a, eval_expr t ctx ~now b) with
    | Some x, Some y -> Some (op x y)
    | _ -> None

  and window_agg t ctx ~now name labels w f =
    match Series.Store.find ctx.ctx_store ~name ~labels with
    | None -> None
    | Some s -> (
        if not (Series.reaches s ~t0:(now -. w)) then
          t.beyond_ring <- t.beyond_ring + 1;
        match Series.between s ~t0:(now -. w) ~t1:now with
        | [] -> None
        | ps -> f ps)

  let eval t ctx ~now =
    let fired = ref [] in
    List.iter
      (fun rule ->
        match rule with
        | Record { rc_name; rc_labels; rc_expr } -> (
            match eval_expr t ctx ~now rc_expr with
            | None -> ()
            | Some v ->
                Series.Store.observe ctx.ctx_store ~now ~name:rc_name
                  ~labels:rc_labels v)
        | Alert { al_name; al_expr; al_cond; al_for_s } -> (
            match eval_expr t ctx ~now al_expr with
            | None -> ()
            | Some v ->
                let st = List.assoc al_name t.e_alerts in
                st.as_value <- v;
                let holds =
                  match al_cond with
                  | Above x -> v > x
                  | Below x -> v < x
                  | Outside (lo, hi) -> v < lo || v > hi
                  | Detector d -> Detect.step d v = Detect.Alarm
                in
                if holds then begin
                  if Float.is_nan st.as_pending_since then
                    st.as_pending_since <- now;
                  let held_s = now -. st.as_pending_since in
                  if held_s >= al_for_s && not st.as_firing then begin
                    st.as_firing <- true;
                    st.as_since <- now;
                    st.as_edges <- st.as_edges + 1;
                    fired := st :: !fired
                  end
                end
                else begin
                  st.as_pending_since <- Float.nan;
                  if st.as_firing then begin
                    st.as_firing <- false;
                    st.as_since <- Float.nan
                  end
                end))
      t.e_rules;
    List.rev !fired
end
