(* Generation of hardware and software variants (Fig. 1, middle-end).

   Every kernel is expanded into a set of implementation candidates with
   estimated metrics; the DSE prunes them; survivors become the operating
   points the runtime selects among.

   Candidate evaluation is the hot path of the compile pipeline: each
   hardware point runs DFG construction + HLS schedule/bind/estimate from
   scratch.  Evaluation therefore goes through an Everest_parallel.Pool
   (one task per candidate, deterministic output ordering) and a shared
   Estimate_cache keyed on the expression fingerprint x impl params, so
   repeated explorations — other DSE strategies, autotuner re-runs, warm
   re-compiles — skip estimation entirely.  The evaluation itself touches
   no shared mutable state (Cost_model, Hw_lower and Everest_hls build all
   state locally), which is what makes the pool safe. *)

open Everest_dsl
open Everest_platform
module Pool = Everest_parallel.Pool

type target = {
  cpu : Spec.cpu;
  fpga : Spec.fpga option;
  sw_tiles : int list;
  sw_threads : int list;
  hw_unrolls : int list;
}

let default_target =
  { cpu = Spec.power9; fpga = Some Spec.bus_fpga; sw_tiles = [ 16; 32; 64 ];
    sw_threads = [ 1; 2; 4; 8; 16 ]; hw_unrolls = [ 1; 4; 16; 64; 256 ] }

type impl =
  | Sw of Cost_model.sw_params
  | Hw of { unroll : int; design : Everest_hls.Hls.design }

type variant = {
  vname : string;
  impl : impl;
  time_s : float;
  energy_j : float;
  area_luts : int;  (* 0 for software *)
}

let in_out_bytes (e : Tensor_expr.expr) =
  let ins =
    List.fold_left
      (fun acc (_, s) -> acc + (8 * Tensor_expr.num_elems s))
      0 (Tensor_expr.inputs e)
  in
  (ins, 8 * Tensor_expr.num_elems (Tensor_expr.shape e))

(* ---- candidate spaces ------------------------------------------------------------ *)

let sw_param_space (t : target) (e : Tensor_expr.expr) :
    Cost_model.sw_params list =
  let tiles =
    if Cost_model.has_contraction e then
      None :: List.map (fun x -> Some x) t.sw_tiles
    else [ None ]
  in
  List.concat_map
    (fun tile ->
      List.concat_map
        (fun layout ->
          List.map
            (fun threads -> { Cost_model.tile; layout; threads })
            t.sw_threads)
        [ Cost_model.Aos; Cost_model.Soa ])
    tiles

(* ---- cached evaluation ----------------------------------------------------------- *)

let sw_variant_of ~cache ~fp (t : target) (e : Tensor_expr.expr)
    (p : Cost_model.sw_params) : variant =
  let key = Estimate_cache.sw_key ~fp t.cpu p in
  match
    Everest_parallel.Cache.find_or_compute cache ~key (fun () ->
        Estimate_cache.Sw_cost
          { time_s = Cost_model.sw_time t.cpu e p;
            energy_j = Cost_model.sw_energy t.cpu e p })
  with
  | Estimate_cache.Sw_cost { time_s; energy_j } ->
      { vname = Cost_model.variant_name p; impl = Sw p; time_s; energy_j;
        area_luts = 0 }
  | _ -> assert false

(* Evaluate one software candidate through the shared cache (used by the
   greedy DSE's coordinate sweeps, which revisit points). *)
let eval_sw ?(cache = Estimate_cache.global) (t : target)
    (e : Tensor_expr.expr) (p : Cost_model.sw_params) : variant =
  sw_variant_of ~cache ~fp:(Tensor_expr.fingerprint e) t e p

(* One hardware candidate = DFG construction + schedule + bind + estimate
   as a single pool task; the cache stores the fit/reject decision too. *)
let hw_variant_of ~cache ~fp (fpga : Spec.fpga) ~dift ~in_bytes ~out_bytes
    (e : Tensor_expr.expr) (unroll : int) : variant option =
  let key = Estimate_cache.hw_key ~fp fpga ~unroll ~dift in
  match
    Everest_parallel.Cache.find_or_compute cache ~key (fun () ->
        let dfg = Hw_lower.dfg_of_expr ~unroll e in
        let trips = Hw_lower.trips e ~unroll in
        let c =
          { Everest_hls.Hls.default_constraints with
            Everest_hls.Hls.clock_mhz = fpga.Spec.clock_mhz;
            unroll; trips; dift; max_banks = max 16 unroll;
            res =
              { Everest_hls.Schedule.default_resources with
                Everest_hls.Schedule.adders = 2 * unroll;
                multipliers = 2 * unroll; mem_ports = 2 } }
        in
        let design = Everest_hls.Hls.synthesize ~c dfg in
        let est = design.Everest_hls.Hls.estimate in
        if
          not
            (Everest_hls.Estimate.fits ~budget:(Spec.fpga_budget fpga) est)
        then Estimate_cache.Hw_rejected
        else
          let link = Spec.host_link fpga in
          let t_exec = Spec.fpga_kernel_time fpga est in
          let t_io =
            Spec.transfer_time link ~bytes:in_bytes
            +. Spec.transfer_time link ~bytes:out_bytes
          in
          Estimate_cache.Hw_design
            { design;
              time_s = t_exec +. t_io;
              energy_j =
                (t_exec *. est.Everest_hls.Estimate.dynamic_power_w)
                +. (t_io *. 0.2 *. fpga.Spec.active_w);
              area_luts =
                est.Everest_hls.Estimate.area.Everest_hls.Estimate.luts })
  with
  | Estimate_cache.Hw_rejected -> None
  | Estimate_cache.Hw_design { design; time_s; energy_j; area_luts } ->
      Some
        {
          vname =
            Printf.sprintf "hw-u%d%s" unroll (if dift then "-dift" else "");
          impl = Hw { unroll; design };
          time_s; energy_j; area_luts;
        }
  | Estimate_cache.Sw_cost _ -> assert false

(* ---- variant generation ----------------------------------------------------------- *)

let sw_variants ?pool ?(cache = Estimate_cache.global) (t : target)
    (e : Tensor_expr.expr) : variant list =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let fp = Tensor_expr.fingerprint e in
  Pool.parallel_map pool (sw_variant_of ~cache ~fp t e) (sw_param_space t e)

let hw_variants ?pool ?(cache = Estimate_cache.global) (t : target)
    ?(dift = false) (e : Tensor_expr.expr) : variant list =
  match t.fpga with
  | None -> []
  | Some fpga ->
      let pool = match pool with Some p -> p | None -> Pool.default () in
      let fp = Tensor_expr.fingerprint e in
      let in_bytes, out_bytes = in_out_bytes e in
      let total_work = Hw_lower.trips e ~unroll:1 in
      let unrolls =
        List.filter
          (fun unroll -> not (unroll > 1 && unroll * 4 > total_work))
          t.hw_unrolls
      in
      List.filter_map Fun.id
        (Pool.parallel_map pool
           (hw_variant_of ~cache ~fp fpga ~dift ~in_bytes ~out_bytes e)
           unrolls)

(* All variants of a kernel under a target.  Security annotations requiring
   confidentiality force DIFT-instrumented hardware variants. *)
let generate ?pool ?cache ?(target = default_target) ?(annots = [])
    (e : Tensor_expr.expr) : variant list =
  let need_dift =
    Everest_ir.Dialect_sec.level_leq Everest_ir.Dialect_sec.Confidential
      (Annot.security_level annots)
  in
  sw_variants ?pool ?cache target e
  @ hw_variants ?pool ?cache target ~dift:need_dift e

(* ---- Pareto filtering ------------------------------------------------------------ *)

(* Keep the points not dominated in (time, energy, area). *)
let dominates a b =
  a.time_s <= b.time_s && a.energy_j <= b.energy_j
  && a.area_luts <= b.area_luts
  && (a.time_s < b.time_s || a.energy_j < b.energy_j || a.area_luts < b.area_luts)

(* O(n^2) reference implementation, kept as the oracle for the property
   test that pins the sweep below to the same semantics. *)
let pareto_naive (vs : variant list) =
  List.filter (fun v -> not (List.exists (fun w -> dominates w v) vs)) vs

module Fmap = Map.Make (Float)

(* O(n log n) Pareto filter: sort lexicographically by (time, energy,
   area); any dominator of a point sorts strictly before it, so a sweep in
   that order only has to ask "does an already-seen point have energy <= E
   and area <= A?".  Seen points are kept as a staircase (a map energy ->
   min area whose areas strictly decrease as energy grows): the answer is
   the area at the greatest energy <= E.  Points with identical keys are
   queried as a batch before any of them is inserted — equal points do not
   dominate each other.  Survivors come back in input order, exactly as the
   naive filter returns them. *)
let pareto (vs : variant list) =
  match vs with
  | [] | [ _ ] -> vs
  | _ ->
      let arr = Array.of_list vs in
      let n = Array.length arr in
      let key i = (arr.(i).time_s, arr.(i).energy_j, arr.(i).area_luts) in
      let order = Array.init n (fun i -> i) in
      Array.sort (fun a b -> compare (key a) (key b)) order;
      let dominated = Array.make n false in
      let stair = ref Fmap.empty in
      let is_dominated e a =
        match Fmap.find_last_opt (fun k -> k <= e) !stair with
        | Some (_, a') -> a' <= a
        | None -> false
      in
      let insert e a =
        if not (is_dominated e a) then begin
          (* drop staircase entries the new point dominates-or-equals *)
          let rec prune () =
            match Fmap.find_first_opt (fun k -> k >= e) !stair with
            | Some (k, a') when a' >= a ->
                stair := Fmap.remove k !stair;
                prune ()
            | _ -> ()
          in
          prune ();
          stair := Fmap.add e a !stair
        end
      in
      let i = ref 0 in
      while !i < n do
        (* batch of identical (time, energy, area) keys *)
        let j = ref !i in
        while !j < n && key order.(!j) = key order.(!i) do
          incr j
        done;
        let _, e, a = key order.(!i) in
        let a = float_of_int a in
        if is_dominated e a then
          for k = !i to !j - 1 do
            dominated.(order.(k)) <- true
          done
        else insert e a;
        i := !j
      done;
      let out = ref [] in
      for k = n - 1 downto 0 do
        if not dominated.(k) then out := arr.(k) :: !out
      done;
      !out

(* ---- bridges to the runtime -------------------------------------------------------- *)

let to_knowledge ~kernel (vs : variant list) :
    Everest_autotune.Knowledge.t =
  Everest_autotune.Knowledge.create kernel
    (List.map
       (fun v ->
         { Everest_autotune.Knowledge.variant = v.vname; features = [];
           metrics =
             [ ("time_s", v.time_s); ("energy_j", v.energy_j);
               ("area_luts", float_of_int v.area_luts) ] })
       vs)

let to_dag_impl (e : Tensor_expr.expr) (v : variant) : Everest_workflow.Dag.impl =
  let in_bytes, out_bytes = in_out_bytes e in
  match v.impl with
  | Sw p ->
      Everest_workflow.Dag.Cpu
        { flops = float_of_int (Tensor_expr.flops e);
          bytes = Cost_model.traffic_bytes e p;
          threads = p.Cost_model.threads }
  | Hw { design; _ } ->
      Everest_workflow.Dag.Fpga
        { bitstream = v.vname; estimate = design.Everest_hls.Hls.estimate;
          in_bytes; out_bytes }

let pp ppf v =
  Fmt.pf ppf "%-20s %.3es %.3eJ %7d LUT" v.vname v.time_s v.energy_j v.area_luts
