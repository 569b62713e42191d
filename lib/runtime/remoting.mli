(** API remoting: guests reach accelerators through a paravirtual transport
    instead of direct device assignment ("API remoting techniques will
    improve data exchanges", paper §IV).

    Each remote call pays a fixed guest-host crossing cost; batching
    amortizes it. *)

type transport = {
  per_call_s : float;  (** vmexit + marshalling. *)
  per_kb_s : float;  (** Shared-memory copy cost. *)
  batch_limit : int;
}

(** Kept for PAPER.md §1's virtualized-runtime row (Fig. 2's API remoting). *)
val virtio_default : transport

(** Kept for PAPER.md §1's virtualized-runtime row: direct assignment, the
    baseline API remoting is priced against. *)
val passthrough : transport

(** Kept for PAPER.md §1's virtualized-runtime row: the cost of [calls]
    invocations carrying [bytes_per_call] each, batched up to
    [batch_limit] per crossing. *)
val cost : transport -> calls:int -> bytes_per_call:int -> float

(** Kept for PAPER.md §1's virtualized-runtime row: the unbatched-to-batched
    cost ratio. *)
val amortization : transport -> calls:int -> bytes_per_call:int -> float

(** Raised (inside the simulation) when a remoted call fails on every
    attempt and no [on_give_up] handler was installed. *)
exception Call_failed of { attempts : int }

(** Kept for PAPER.md §1's virtualized-runtime row: issue a remoted
    invocation inside the simulation.

    [fail ~attempt] is a deterministic fault hook evaluated when the
    crossing completes ([true] = the transport dropped the call); failed
    attempts are retried up to [retries] times with
    {!Everest_resilience.Policy.default_backoff} on the simulated clock.
    When the budget runs out, [on_give_up] fires with the attempt count
    (default: raise {!Call_failed}). *)
val invoke :
  ?fail:(attempt:int -> bool) ->
  ?retries:int ->
  ?on_give_up:(attempts:int -> unit) ->
  Everest_platform.Desim.t ->
  transport ->
  calls:int ->
  bytes_per_call:int ->
  (unit -> unit) ->
  unit
