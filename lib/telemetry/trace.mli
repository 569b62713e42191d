(** Hierarchical spans over a pluggable clock with a bounded in-memory sink.

    A span is one timed region with attributes; parent/child nesting comes
    either from an explicit [?parent] (asynchronous code: the executor opens
    a task span and nests transfers under it across Desim callbacks) or from
    the tracer's stack of currently open [with_span] scopes (synchronous
    code: compiler passes, DSE stages).

    The sink keeps the first [capacity] started spans and counts the rest as
    dropped — telemetry must never grow without bound inside a long run. *)

type attr_value = S of string | I of int | F of float | B of bool

type attr = string * attr_value

type span = {
  id : int;
  parent : int option;
  name : string;
  track : int;  (** render lane: Chrome trace tid; executor uses one per node *)
  start_s : float;
  mutable end_s : float;  (** < [start_s] while the span is still open *)
  mutable attrs : attr list;
}

type t

(** [create ()] makes a fresh tracer. Span ids are allocated monotonically
    from 0, counting every *started* span — including spans dropped once the
    sink is full — so an id is a stable identity within the tracer. *)
val create : ?capacity:int -> ?clock:Clock.t -> unit -> t

(** The shared disabled tracer: records nothing, costs (almost) nothing.
    Instrumented code paths default to it so uninstrumented runs stay
    fast. *)
val noop : t

val is_noop : t -> bool

(** [name_track t track name] gives a render track a human name (first
    binding wins). *)
val name_track : t -> int -> string -> unit

val named_tracks : t -> (int * string) list

val start : t -> ?parent:int -> ?track:int -> ?attrs:attr list -> string -> span

(** [finish t ?attrs s] stamps the end time; [?attrs] are *prepended*, so
    late attributes shadow earlier ones ([attr] reads the first binding) and
    the hot path stays allocation-light — exporters dedupe on their own,
    cold, path. *)
val finish : t -> ?attrs:attr list -> span -> unit

val finished : span -> bool

(** 0 while the span is still open. *)
val duration : span -> float

(** Synchronous scoped span: nesting tracked on the tracer's stack. The
    callback always receives a span, even when tracing is disabled. *)
val with_span : t -> ?attrs:attr list -> string -> (span -> 'a) -> 'a

(** Completed+open spans in start order (copies the log). *)
val spans : t -> span list

(** Same spans, newest first (also a copy — the sink is a pooled array, so
    both list views cost one cons per span; prefer [iter] on hot paths). *)
val spans_rev : t -> span list

(** Zero-allocation walk over the log in start order. *)
val iter : t -> (span -> unit) -> unit

val span_count : t -> int

(** Exclusive upper bound on span ids in this tracer (counts
    dropped spans too) — lets readers size dense id-indexed tables. *)
val next_span_id : t -> int

(** Spans lost to the bounded sink. *)
val dropped : t -> int

val attr : span -> string -> attr_value option
val attr_int : span -> string -> int option
val attr_string : span -> string -> string option

(** Allocation-free variants for per-span hot loops.  [attr_is s key v] is
    true iff [key]'s first binding is the string [v]; [attr_int_def] reads
    an integer attribute with a default instead of an [option]. *)
val attr_is : span -> string -> string -> bool

val attr_int_def : span -> string -> default:int -> int
