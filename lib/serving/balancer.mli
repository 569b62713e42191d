(** Pluggable request routing over N orchestrator shards.

    Policies:
    - [Round_robin] — cycle a cursor, skipping unroutable shards.
    - [Least_outstanding] — fewest queued + in-flight requests (lowest
      shard id on ties), the classic join-shortest-queue heuristic.
    - [Tenant_affinity] — consistent hashing of the tenant name onto a
      ring of [vnodes] virtual points per shard, so a tenant keeps
      hitting the same shard (its tuner knowledge and [Estimate_cache]
      entries stay shard-local) and adding or removing shards only remaps
      the tenants adjacent to the moved ring points.  Unroutable shards
      are passed over by walking the ring, so affinity degrades to
      next-on-ring during incidents instead of failing.

    The balancer itself is stateless apart from the round-robin cursor;
    health and load are supplied per decision so routing always sees the
    current fabric state. *)

type policy =
  | Round_robin
  | Least_outstanding
  | Tenant_affinity of { vnodes : int }

val policy_name : policy -> string

(** Parse ["rr" | "round-robin" | "lo" | "least-outstanding" |
    "affinity"]. *)
val policy_of_string : string -> policy option

type t

val create : policy -> n_shards:int -> t

(** Pick a shard for [tenant]; [routable] filters shards (healthy and
    below their queue bound), [outstanding] reports queued + in-flight
    load.  [None] when no shard is routable. *)
val route :
  t ->
  tenant:string ->
  routable:(int -> bool) ->
  outstanding:(int -> int) ->
  int option

(** {2 Checkpoint / restore} *)

(** Round-robin cursor — the only mutable routing state; the hash ring
    is rebuilt deterministically from the policy. *)
val cursor : t -> int

val set_cursor : t -> int -> unit
