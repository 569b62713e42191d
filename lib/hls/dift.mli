(** Dynamic information-flow tracking instrumentation (TaintHLS, paper
    ref [18]).

    A shadow datapath propagates one taint bit per value in parallel with
    the real computation: taint(out) = OR of taint(inputs).  Checks sit at
    stores (data leaving the accelerator).  The shadow logic adds area but
    no latency, matching the TaintHLS design point. *)

type check = { store_node : int; array : string option }

type instrumented = {
  checks : check list;
  shadow_area : Estimate.area;
}

val instrument : Cdfg.t -> instrumented
