(** [memref] dialect: buffers with explicit memory spaces.

    Memory spaces matter to EVEREST: the compiler moves data between host
    DRAM, FPGA BRAM/HBM and remote nodes, and the HLS memory partitioner
    rewrites single memrefs into banked ones. *)

open Ir

(** A host-memory buffer. *)
val alloc : ctx -> Types.scalar -> int list -> op

val dealloc : ctx -> value -> op

(** Indexed load; the result type is the element type.
    @raise Invalid_argument when the operand is not a memref. *)
val load : ctx -> value -> value list -> op

(** [store ctx v m idxs] writes [v] into [m] at [idxs]. *)
val store : ctx -> value -> value -> value list -> op

val copy : ctx -> value -> value -> op

val register : unit -> unit
