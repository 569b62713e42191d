(** Domain-safe string-keyed memo cache with hit/miss accounting.

    One mutex guards the table and the counters; the cached computation in
    {!find_or_compute} runs outside the lock, so two domains racing on the
    same missing key may both compute it (first insert wins).  Lookups —
    including misses — are counted; [hits / (hits + misses)] is the reuse
    rate of whatever sits behind the cache. *)

type 'a t

type stats = { hits : int; misses : int; entries : int }

(** [create ~name ()] — [name] labels the published telemetry gauges. *)
val create : ?name:string -> unit -> 'a t


(** Insert unless present (first writer wins). *)
val add : 'a t -> string -> 'a -> unit

(** [find_or_compute t ~key f] returns the cached value or computes,
    stores and returns [f ()].  [f] runs outside the cache lock. *)
val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a

val stats : 'a t -> stats

(** Publish [cache_hits] / [cache_misses] / [cache_entries] gauges labelled
    [cache=<name>] into {!Everest_telemetry.Metrics.default}.  Call from a
    single domain. *)
val publish : 'a t -> unit
