(* Content-addressed cache of hardware/software cost estimations.

   Every DSE strategy regenerates the same candidate space, and the
   exhaustive/sampled/greedy strategies (plus the pipeline and repeated
   autotuner explorations) re-estimate the same points: the expensive part
   — DFG construction, HLS scheduling/binding/estimation — is pure in
   (expression structure, platform spec, impl params), so results are
   memoized under a key built from Tensor_expr.fingerprint and the
   parameter/spec values that feed the estimation.  The cache is shared
   process-wide by default and safe to hit from pool worker domains
   (Everest_parallel.Cache does its own locking). *)

open Everest_platform

type value =
  | Sw_cost of { time_s : float; energy_j : float }
  | Hw_rejected  (* candidate did not fit the FPGA budget *)
  | Hw_design of {
      design : Everest_hls.Hls.design;
      time_s : float;
      energy_j : float;
      area_luts : int;
    }

type t = value Everest_parallel.Cache.t

let create () : t = Everest_parallel.Cache.create ~name:"estimate" ()

(* The process-wide cache: shared across Dse strategies, Pipeline.compile
   and repeated explorations so warm re-runs skip estimation entirely. *)
let global : t = create ()

(* Cost inputs that are part of the key, not just the spec name: a custom
   target with the same name but different numbers must not collide. *)
let cpu_key (c : Spec.cpu) =
  Printf.sprintf "%s:%d:%h:%h:%h:%h:%h" c.Spec.cpu_name c.Spec.cores
    c.Spec.freq_ghz c.Spec.flops_per_cycle c.Spec.mem_bw_gbs c.Spec.idle_w
    c.Spec.active_w_per_core

let fpga_key (f : Spec.fpga) =
  Printf.sprintf "%s:%s:%d:%d:%d:%d:%h"
    f.Spec.fpga_name
    (match f.Spec.attach with
    | Spec.Bus_coherent -> "bus"
    | Spec.Network_attached -> "net")
    f.Spec.luts f.Spec.dsps f.Spec.brams f.Spec.ffs f.Spec.clock_mhz

let sw_key ~fp (cpu : Spec.cpu) (p : Cost_model.sw_params) =
  String.concat "|" [ fp; "sw"; cpu_key cpu; Cost_model.variant_name p ]

let hw_key ~fp (fpga : Spec.fpga) ~unroll ~dift =
  String.concat "|"
    [ fp; "hw"; fpga_key fpga; string_of_int unroll;
      (if dift then "dift" else "plain") ]
