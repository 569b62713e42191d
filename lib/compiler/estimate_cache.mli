(** Content-addressed cache of hardware/software cost estimations.

    Keys combine {!Everest_dsl.Tensor_expr.fingerprint} with the platform
    spec values and impl params that feed the estimation (sw
    tile/layout/threads, hw unroll/DIFT), so a cached result is reusable
    whenever the same candidate would be re-estimated — across DSE
    strategies, [Pipeline.compile] and repeated autotuner explorations.
    Lookups are safe from pool worker domains; the underlying
    {!Everest_parallel.Cache} does its own locking. *)

open Everest_platform

type value =
  | Sw_cost of { time_s : float; energy_j : float }
  | Hw_rejected  (** Candidate did not fit the FPGA budget. *)
  | Hw_design of {
      design : Everest_hls.Hls.design;
      time_s : float;
      energy_j : float;
      area_luts : int;
    }

type t = value Everest_parallel.Cache.t

val create : unit -> t

(** The process-wide shared cache (default for every estimation site). *)
val global : t

val sw_key : fp:string -> Spec.cpu -> Cost_model.sw_params -> string
val hw_key : fp:string -> Spec.fpga -> unroll:int -> dift:bool -> string
