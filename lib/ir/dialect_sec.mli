(** [sec] dialect: the data-centric security annotations of EVEREST.

    Values are classified with confidentiality levels; encrypt/decrypt mark
    boundary crossings; [sec.taint]/[sec.check] express the dynamic
    information-flow-tracking contract the HLS flow instruments
    (TaintHLS). *)

open Ir

(** Confidentiality lattice, ordered Public < Internal < Confidential <
    Secret. *)
type level = Public | Internal | Confidential | Secret

val level_name : level -> string
val level_of_name : string -> level option
val level_rank : level -> int

(** [level_leq a b] iff information at level [a] may flow to clearance
    [b]. *)
val level_leq : level -> level -> bool

val classify : ctx -> value -> level -> op

(** AES-128-CTR under [key]. *)
val encrypt : ctx -> value -> value -> op

val register : unit -> unit
