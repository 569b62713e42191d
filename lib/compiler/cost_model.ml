(* Analytical cost models for software variants (the "high-level
   architecture models" of the middle-end, Fig. 1).

   The models capture the first-order effects the paper's variant space is
   built on: tiling improves reuse for contraction-like kernels, SoA layout
   improves effective streaming bandwidth, threading scales compute but
   shares memory bandwidth. *)

open Everest_dsl

type layout = Aos | Soa

let layout_name = function Aos -> "aos" | Soa -> "soa"

type sw_params = { tile : int option; layout : layout; threads : int }

let variant_name (p : sw_params) =
  Printf.sprintf "sw-%s%s-t%d" (layout_name p.layout)
    (match p.tile with None -> "" | Some t -> Printf.sprintf "-tile%d" t)
    p.threads

(* Does the expression contain a contraction (matmul/einsum) that benefits
   from tiling? *)
let rec has_contraction (e : Tensor_expr.expr) =
  match e.Tensor_expr.node with
  | Tensor_expr.Matmul _ | Tensor_expr.Contract _ -> true
  | Tensor_expr.Input _ -> false
  | Tensor_expr.Binop (_, a, b) -> has_contraction a || has_contraction b
  | Tensor_expr.Unop (_, a) | Tensor_expr.Scale (_, a) -> has_contraction a

(* Memory traffic in bytes for one evaluation under [params].

   Contraction kernels: naive traffic re-reads operands per output element;
   a tile of size T gives ~T-fold reuse, floored at compulsory traffic.
   Streaming kernels: compulsory traffic, scaled by layout efficiency. *)
let traffic_bytes (e : Tensor_expr.expr) (p : sw_params) =
  let compulsory = float_of_int (Tensor_expr.bytes_moved e) in
  if has_contraction e then begin
    let flops = float_of_int (Tensor_expr.flops e) in
    (* naive: ~one 8-byte operand read per multiply-add pair *)
    let naive = 4.0 *. flops in
    match p.tile with
    | None -> Float.max compulsory naive
    | Some t ->
        Float.max compulsory (naive /. float_of_int t)
  end
  else compulsory

(* Effective bandwidth multiplier of the layout: SoA streams unit-stride;
   AoS wastes bandwidth on interleaved fields for streaming kernels. *)
let layout_efficiency (e : Tensor_expr.expr) = function
  | Soa -> 1.0
  | Aos -> if has_contraction e then 0.95 else 0.6

let sw_time (cpu : Everest_platform.Spec.cpu) (e : Tensor_expr.expr)
    (p : sw_params) =
  let flops = float_of_int (Tensor_expr.flops e) in
  let threads = max 1 (min p.threads cpu.Everest_platform.Spec.cores) in
  let compute =
    flops
    /. (float_of_int threads
       *. cpu.Everest_platform.Spec.freq_ghz *. 1e9
       *. cpu.Everest_platform.Spec.flops_per_cycle)
  in
  (* untiled contractions also lose compute efficiency to stalls *)
  let compute =
    if has_contraction e && p.tile = None then compute *. 2.0 else compute
  in
  let bw =
    cpu.Everest_platform.Spec.mem_bw_gbs *. 1e9 *. layout_efficiency e p.layout
  in
  let memory = traffic_bytes e p /. bw in
  (* parallel threads share the memory system *)
  Float.max compute memory

let sw_energy (cpu : Everest_platform.Spec.cpu) (e : Tensor_expr.expr)
    (p : sw_params) =
  let t = sw_time cpu e p in
  let threads = max 1 (min p.threads cpu.Everest_platform.Spec.cores) in
  t
  *. (cpu.Everest_platform.Spec.idle_w
     +. (float_of_int threads *. cpu.Everest_platform.Spec.active_w_per_core))
