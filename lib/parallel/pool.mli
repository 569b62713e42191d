(** Fixed-size domain pool for embarrassingly parallel compiler stages.

    A pool of [domains] OCaml 5 domains drains a lock-protected queue of
    chunked index ranges.  The submitting domain participates in the work:
    a pool of size 1 spawns no domains and runs everything sequentially in
    the caller, so results (and test runs) are deterministic on one core.
    [parallel_map] preserves positional output ordering regardless of
    completion order. *)

type t

(** Pool size resolution used by {!create} when [domains] is omitted: the
    [EVEREST_DOMAINS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)
val default_domains : unit -> int

(** [create ~domains ()] spawns [domains - 1] worker domains (the caller is
    the remaining one).  [domains] defaults to {!default_domains}. *)
val create : ?domains:int -> unit -> t

(** Stop the workers and join them.  Pending jobs are abandoned. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a

(** [parallel_map t f xs] evaluates [f] on every element of [xs] across the
    pool and returns results in input order.  If any task raises, the first
    exception is re-raised at the call site (with its backtrace) once
    in-flight chunks drain; remaining unclaimed items are not started.
    Must not be called from inside a task running on the same pool. *)
val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Items executed per domain slot (slot 0 is the submitting domain). *)
val stats : t -> int array

(** Publish {!stats} as [pool_domain_tasks{domain="i"}] gauges plus a
    [pool_domains] gauge into {!Everest_telemetry.Metrics.default}.  Call
    from the submitting domain only. *)
val publish_stats : t -> unit

(** The process-wide shared pool used by callers that do not pass one,
    created on first use with {!default_domains}. *)
val default : unit -> t
