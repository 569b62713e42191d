(** Per-tenant admission control: token buckets plus an SLO burn-rate
    gate.

    Every arrival first pays one token from its tenant's bucket (refilled
    continuously at [rate_rps], capped at [burst]); with no tokens left
    the request is rejected as [Rate_limited] instead of queueing forever.
    Admitted arrivals then pass the burn gate: when any of the tenant's
    {!Everest_observe.Slo} monitors is burning its error budget faster
    than [burn_threshold] on *both* the fast and slow windows — the same
    two-window rule the orchestrator alerts on — new arrivals are shed as
    [Slo_burning] until the windows recover.  The gate is pull-based
    (burn rates are recomputed against [~now] at every decision), so a
    throttled tenant is re-admitted as soon as the bad events age out of
    the slow window, even if it sent nothing in between. *)

type reason =
  | Rate_limited  (** Token bucket empty. *)
  | Slo_burning  (** Burn-rate gate closed for this tenant. *)
  | Overloaded  (** Every routable shard is at its queue bound. *)
  | Unavailable  (** No healthy shard (crashed or draining). *)

val reason_name : reason -> string

(** Every reason, in declaration order (e.g. for decoding a persisted
    {!reason_name} back to its constructor). *)
val all_reasons : reason list

type decision = Admit | Reject of reason

type bucket_config = {
  rate_rps : float;  (** Sustained admitted requests per second. *)
  burst : float;  (** Bucket capacity (maximum burst size). *)
}

(** Effectively unlimited; the default for tenants without a bucket. *)
val unlimited : bucket_config

type config = {
  buckets : (string * bucket_config) list;  (** Per-tenant overrides. *)
  default_bucket : bucket_config;
  burn_threshold : float;
      (** Shed when both burn-rate windows exceed this; <= 0 disables the
          gate. *)
}

val default_config : config

type t

(** [create config ~tenants ~monitors] readies one bucket per tenant;
    [monitors tenant] returns the SLO monitors whose burn rates gate that
    tenant (typically the fabric's per-tenant monitors). *)
val create :
  config ->
  tenants:string list ->
  monitors:(string -> Everest_observe.Slo.monitor list) ->
  t

(** Decide one arrival at [now]; [Admit] consumes a token. *)
val decide : t -> tenant:string -> now:float -> decision

(** Rejections recorded by {!decide}, plus any routing-stage rejections
    reported through {!note_rejection}. *)
val note_rejection : t -> tenant:string -> reason -> unit

(** (reason, count) pairs for one tenant, in declaration order of
    {!reason}; zero-count reasons included. *)
val rejections_by_reason : t -> tenant:string -> (reason * int) list

(** {2 Checkpoint / restore} *)

(** Per-tenant bucket fill and decision counters.  Monitors are shared
    with the fabric and restored there. *)
type tenant_persisted = {
  tp_tenant : string;
  tp_tokens : float;
  tp_last : float;
  tp_admitted : int;
  tp_rejected : (reason * int) list;
}

val export : t -> tenant_persisted list
val import : t -> tenant_persisted list -> unit
