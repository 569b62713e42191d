(** Data-characteristics and requirement annotations.

    The "extra characteristics of the algorithms and data" the EVEREST DSLs
    attach to kernels and data (paper §III-A), so that compilation and
    runtime selection become data-driven.  Annotations encode to IR
    attributes. *)

type access_pattern = Sequential | Strided of int | Random | Streaming

type t =
  | Access of access_pattern
  | Size_hint of int  (** Expected size in bytes. *)
  | Element_range of float * float  (** Expected value range; drives monitors. *)
  | Locality of string  (** Where the data naturally lives, e.g. ["edge:lyon"];
                            ["node:<name>"] pins a task to a platform node. *)
  | Security of Everest_ir.Dialect_sec.level
  | Integrity_required
  | Latency_bound_ms of float
  | Throughput_hint of float  (** Items per second. *)
  | Reuse_factor of int  (** How often each element is touched. *)
  | Batch of int
  | Ramp_sensitive  (** Use case A: output quality degrades on ramps. *)

val access_name : access_pattern -> string

(** One IR attribute per annotation, keyed ["everest.*"]. *)
val to_attr : t -> string * Everest_ir.Attr.t

val to_attrs : t list -> (string * Everest_ir.Attr.t) list

(** Highest security level among the annotations (default [Public]). *)
val security_level : t list -> Everest_ir.Dialect_sec.level
