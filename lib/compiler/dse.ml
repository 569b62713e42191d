(* Design-space exploration over the variant space.

   Strategies: exhaustive enumeration (ground truth), random sampling and a
   greedy hill-climb — the trade-off between exploration cost (how many HLS
   estimations run) and result quality that the middle-end manages.

   Candidate evaluation runs on a domain pool and through the shared
   estimation cache (see Variants/Estimate_cache); [explored] counts
   candidate evaluations *requested*, cache hits make them cheap without
   changing the count.  Every strategy publishes the cache counters and
   per-domain pool gauges after it finishes, from the coordinating domain. *)

open Everest_dsl
module Probe = Everest_telemetry.Probe
module Metrics = Everest_telemetry.Metrics
module Trace = Everest_telemetry.Trace
module Pool = Everest_parallel.Pool
module Rng = Everest_parallel.Rng

type result = {
  explored : int;  (* candidate evaluations performed *)
  variants : Variants.variant list;  (* Pareto survivors *)
  best_time : Variants.variant option;
}

let summarize ?(strategy = "exhaustive") explored vs =
  let best f =
    List.fold_left
      (fun acc v ->
        match acc with Some b when f b <= f v -> acc | _ -> Some v)
      None vs
  in
  let r =
    {
      explored;
      variants = Variants.pareto vs;
      best_time = best (fun v -> v.Variants.time_s);
    }
  in
  let labels = [ ("strategy", strategy) ] in
  Metrics.inc ~by:(float_of_int explored)
    (Metrics.counter ~labels "dse_evaluations_total");
  Metrics.set
    (Metrics.gauge ~labels "dse_pareto_size")
    (float_of_int (List.length r.variants));
  r

(* Cache hit/miss gauges + per-domain task gauges, recorded once per
   strategy run from the coordinating domain. *)
let publish_instrumentation pool cache =
  Everest_parallel.Cache.publish
    (match cache with Some c -> c | None -> Estimate_cache.global);
  Pool.publish_stats (match pool with Some p -> p | None -> Pool.default ())

let exhaustive ?pool ?cache ?annots (e : Tensor_expr.expr) : result =
  Probe.time_block ~labels:[ ("stage", "exhaustive") ] "dse_stage"
    (fun () ->
      let vs = Variants.generate ?pool ?cache ?annots e in
      let r = summarize ~strategy:"exhaustive" (List.length vs) vs in
      publish_instrumentation pool cache;
      r)

(* Random subset of the full space: [budget] samples drawn with a fixed
   seed, so the subset is deterministic. *)
let sampled ?pool ?cache ~budget (e : Tensor_expr.expr) : result =
  Probe.time_block ~labels:[ ("stage", "sampled") ] "dse_stage" @@ fun () ->
  let summarize explored vs =
    let r = summarize ~strategy:"sampled" explored vs in
    publish_instrumentation pool cache;
    r
  in
  let all = Variants.generate ?pool ?cache e in
  let n = List.length all in
  if budget >= n then summarize n all
  else begin
    let rng = Rng.create 17 in
    let arr = Array.of_list all in
    (* partial Fisher-Yates *)
    for i = 0 to budget - 1 do
      let j = i + Rng.int rng (n - i) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    summarize budget (Array.to_list (Array.sub arr 0 budget))
  end

(* Greedy coordinate descent: start from the naive software point and sweep
   one knob at a time — threads, then tile, then layout — keeping the best
   along each axis.  Only the final software point is compared against the
   (few) hardware candidates, so far fewer cost evaluations run than in the
   exhaustive search.  The sweeps revisit points (the threads axis runs
   twice), so evaluation goes through the shared estimation cache. *)
let greedy ?pool ?cache (e : Tensor_expr.expr) : result =
  let target = Variants.default_target in
  Probe.time_block ~labels:[ ("stage", "greedy") ] "dse_stage" @@ fun () ->
  (* per-axis timing: each coordinate sweep is its own probe stage *)
  let stage name f =
    Probe.time_block ~labels:[ ("stage", "greedy_" ^ name) ] "dse_stage" f
  in
  let explored = ref 0 in
  let eval (p : Cost_model.sw_params) =
    incr explored;
    Variants.eval_sw ?cache target e p
  in
  let better a b = if a.Variants.time_s <= b.Variants.time_s then a else b in
  let sweep current candidates =
    List.fold_left (fun best p -> better best (eval p)) current candidates
  in
  let p0 = { Cost_model.tile = None; layout = Cost_model.Aos; threads = 1 } in
  let current = eval p0 in
  let params v =
    match v.Variants.impl with Variants.Sw p -> p | _ -> assert false
  in
  (* threads axis *)
  let current =
    stage "threads" (fun () ->
        sweep current
          (List.map (fun t -> { (params current) with Cost_model.threads = t })
             target.Variants.sw_threads))
  in
  (* tile axis (only meaningful for contractions) *)
  let current =
    if Cost_model.has_contraction e then
      stage "tile" (fun () ->
          sweep current
            (List.map
               (fun t -> { (params current) with Cost_model.tile = Some t })
               target.Variants.sw_tiles))
    else current
  in
  (* second threads pass: tiling changes the compute/memory balance *)
  let current =
    stage "rethreads" (fun () ->
        sweep current
          (List.map (fun t -> { (params current) with Cost_model.threads = t })
             target.Variants.sw_threads))
  in
  (* layout axis *)
  let current =
    stage "layout" (fun () ->
        sweep current
          [ { (params current) with Cost_model.layout = Cost_model.Soa } ])
  in
  (* hardware candidates *)
  let hw =
    stage "hw" (fun () -> Variants.hw_variants ?pool ?cache target ~dift:false e)
  in
  explored := !explored + List.length hw;
  let final = List.fold_left better current hw in
  let r = summarize ~strategy:"greedy" !explored [ final ] in
  publish_instrumentation pool cache;
  r

(* Quality of a strategy versus the exhaustive oracle: ratio of achieved
   best time to true best time (1.0 = optimal). *)
let quality (r : result) (oracle : result) =
  match (r.best_time, oracle.best_time) with
  | Some a, Some b when b.Variants.time_s > 0.0 ->
      a.Variants.time_s /. b.Variants.time_s
  | _ -> infinity
