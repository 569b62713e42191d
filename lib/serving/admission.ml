(* Token buckets + SLO burn-rate gate; see the interface for the model.

   State is an association list keyed by tenant name (tenant counts are
   small and iteration order must be deterministic for the byte-identity
   checks, which rules out hash tables). *)

module Slo = Everest_observe.Slo

type reason = Rate_limited | Slo_burning | Overloaded | Unavailable

let reason_name = function
  | Rate_limited -> "rate-limited"
  | Slo_burning -> "slo-burning"
  | Overloaded -> "overloaded"
  | Unavailable -> "unavailable"

let all_reasons = [ Rate_limited; Slo_burning; Overloaded; Unavailable ]

type decision = Admit | Reject of reason

type bucket_config = { rate_rps : float; burst : float }

let unlimited = { rate_rps = infinity; burst = infinity }

type config = {
  buckets : (string * bucket_config) list;
  default_bucket : bucket_config;
  burn_threshold : float;
}

let default_config =
  { buckets = []; default_bucket = unlimited; burn_threshold = 2.0 }

type bucket = {
  b_config : bucket_config;
  mutable b_tokens : float;
  mutable b_last : float;
}

type tenant_state = {
  ts_bucket : bucket;
  ts_monitors : Slo.monitor list;
  mutable ts_admitted : int;
  mutable ts_rejected : (reason * int) list;
}

type t = { a_config : config; a_tenants : (string * tenant_state) list }

let create config ~tenants ~monitors =
  let mk name =
    let bc =
      match List.assoc_opt name config.buckets with
      | Some b -> b
      | None -> config.default_bucket
    in
    if bc.rate_rps <= 0.0 || bc.burst <= 0.0 then
      invalid_arg ("Admission.create: non-positive bucket for " ^ name);
    ( name,
      { ts_bucket = { b_config = bc; b_tokens = bc.burst; b_last = 0.0 };
        ts_monitors = monitors name;
        ts_admitted = 0;
        ts_rejected = List.map (fun r -> (r, 0)) all_reasons } )
  in
  { a_config = config; a_tenants = List.map mk tenants }

let state t tenant =
  match List.assoc_opt tenant t.a_tenants with
  | Some s -> s
  | None -> invalid_arg ("Admission: unknown tenant " ^ tenant)

let refill b ~now =
  let dt = Float.max 0.0 (now -. b.b_last) in
  b.b_last <- Float.max b.b_last now;
  if Float.is_finite b.b_config.burst then
    b.b_tokens <-
      Float.min b.b_config.burst (b.b_tokens +. (dt *. b.b_config.rate_rps))

let take_token b ~now =
  refill b ~now;
  if not (Float.is_finite b.b_config.burst) then true
  else if b.b_tokens >= 1.0 then begin
    b.b_tokens <- b.b_tokens -. 1.0;
    true
  end
  else false

(* The gate closes only when some monitor burns on both windows, mirroring
   the alerting rule — a short blip throttles nobody. *)
let burning t ts ~now =
  t.a_config.burn_threshold > 0.0
  && List.exists
       (fun m ->
         let fast, slow = Slo.burn_rates m ~now in
         fast >= t.a_config.burn_threshold
         && slow >= t.a_config.burn_threshold)
       ts.ts_monitors

let bump ts reason =
  ts.ts_rejected <-
    List.map
      (fun (r, n) -> if r = reason then (r, n + 1) else (r, n))
      ts.ts_rejected

let decide t ~tenant ~now =
  let ts = state t tenant in
  if not (take_token ts.ts_bucket ~now) then begin
    bump ts Rate_limited;
    Reject Rate_limited
  end
  else if burning t ts ~now then begin
    bump ts Slo_burning;
    Reject Slo_burning
  end
  else begin
    ts.ts_admitted <- ts.ts_admitted + 1;
    Admit
  end

let note_rejection t ~tenant reason = bump (state t tenant) reason
let rejections_by_reason t ~tenant = (state t tenant).ts_rejected

(* Checkpoint/restore: per-tenant bucket fill and decision counters, in
   [a_tenants] order.  Monitors are shared with the fabric and restored
   there. *)
type tenant_persisted = {
  tp_tenant : string;
  tp_tokens : float;
  tp_last : float;
  tp_admitted : int;
  tp_rejected : (reason * int) list;
}

let export t =
  List.map
    (fun (name, ts) ->
      { tp_tenant = name; tp_tokens = ts.ts_bucket.b_tokens;
        tp_last = ts.ts_bucket.b_last; tp_admitted = ts.ts_admitted;
        tp_rejected = ts.ts_rejected })
    t.a_tenants

let import t persisted =
  List.iter
    (fun tp ->
      let ts = state t tp.tp_tenant in
      ts.ts_bucket.b_tokens <- tp.tp_tokens;
      ts.ts_bucket.b_last <- tp.tp_last;
      ts.ts_admitted <- tp.tp_admitted;
      ts.ts_rejected <- tp.tp_rejected)
    persisted
