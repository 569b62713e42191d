(** [hw] dialect: hardware variants.

    [hw.kernel] wraps a region the HLS flow turns into an accelerator; its
    attributes record the estimates (area, latency, II) the DSE and runtime
    need.  [hw.offload] is the call-site form referring to an outlined
    kernel. *)

val register : unit -> unit
