(** Top-level HLS driver (the Bambu role in the EVEREST flow).

    {!synthesize} runs schedule -> bind -> partition -> estimate -> RTL on a
    DFG under user constraints, returning a complete design record.  The
    compiler's DSE calls this for every hardware variant candidate. *)

type constraints = {
  res : Schedule.resources;
  clock_mhz : float;
  unroll : int;  (** How many loop iterations the DFG body represents
                     (the DFG is built already-unrolled). *)
  pipeline : bool;
  partition : bool;  (** Run the memory partitioner. *)
  max_banks : int;  (** Partitioner search bound. *)
  dift : bool;  (** Instrument with taint tracking. *)
  trips : int;  (** Loop trip count for execution-time reporting. *)
}

val default_constraints : constraints

type design = {
  dfg : Cdfg.t;
  schedule : Schedule.t;
  binding : Bind.binding;
  mem : (string * Mem_partition.config * int) list;
  estimate : Estimate.t;
  rtl : Rtl.t;
}

val synthesize : ?c:constraints -> ?name:string -> Cdfg.t -> design

val report : Format.formatter -> design -> unit
