(** The data protection layer of the virtualized runtime (Fig. 2, item 1).

    Wraps the security monitors around named data streams; on anomalies it
    executes the auto-protection policy: quarantining sources, forcing
    encryption on a stream, or requesting a hardened variant from the
    adaptation layer. *)

open Everest_security

type stream_state = {
  range_mon : Monitor.range_monitor;
  size_mon : Monitor.size_monitor;
  timing_mon : Monitor.timing_monitor;
  mutable quarantined : bool;
  mutable force_encryption : bool;
  mutable hardened_variant : string option;
  mutable alerts : Monitor.event list;
}

type t = {
  mutable streams : stream_state list;
  mutable total_alerts : int;
  mutable dropped_batches : int;
}

val create : unit -> t
val register : t -> stream_state

(** Feed known-good traffic into every monitor of the stream. *)
val train : stream_state -> values:float list -> bytes:int -> latency_s:float -> unit

val finalize : stream_state -> unit

(** Apply policy actions to the stream's state. *)
val apply_actions : t -> stream_state -> Monitor.action list -> unit

type admit_result = Accepted | Rejected of string

(** Admit one data batch: run every monitor; anomalies trigger the policy;
    quarantined streams reject. *)
val admit :
  t -> stream_state -> values:float list -> bytes:int -> latency_s:float -> admit_result

(** Extra transfer cost when encryption was forced on the stream. *)
val transfer_overhead_s :
  stream_state -> bytes:int -> accelerated:bool -> clock_hz:float -> float
