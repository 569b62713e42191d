(* Seeded request generators for the serving fabric.

   Open-loop tenants are non-homogeneous Poisson processes realized by
   thinning: gaps are drawn at the tenant's peak rate and each candidate
   arrival is accepted with probability rate(t)/peak, where rate(t) folds
   in the diurnal sinusoid and the Markov-modulated burst overlay.  The
   burst overlay is a two-state chain whose calm/burst sojourns are
   exponential draws from the same per-tenant stream, so one seed fixes
   the whole sample path.

   Closed-loop tenants cannot be pre-generated (a user's next arrival
   depends on when the previous request resolved), so they are exposed as
   [closed_user] values whose think times the fabric draws as requests
   complete — again from private per-user streams, keeping the full run
   deterministic. *)

module Rng = Everest_parallel.Rng

type burst = {
  burst_factor : float;
  mean_calm_s : float;
  mean_burst_s : float;
}

type arrival =
  | Open of {
      rate_rps : float;
      diurnal_amplitude : float;
      diurnal_period_s : float;
      burst : burst option;
    }
  | Closed of { users : int; think_s : float }

type tenant = {
  t_name : string;
  t_kernel : string;
  t_arrival : arrival;
  t_features : int -> (string * float) list;
}

let no_features _ = []

(* Every rate, period, think time, sojourn and horizon must be a finite
   positive number: a NaN or infinite one makes the arrival loops below
   spin forever or silently emit nothing. *)
let check_positive fn param x =
  if not (Float.is_finite x && x > 0.0) then
    invalid_arg (Printf.sprintf "%s: %s must be finite and > 0" fn param)

let open_tenant ?(diurnal_amplitude = 0.0) ?(diurnal_period_s = 1.0) ?burst
    ?(features = no_features) ~name ~kernel ~rate_rps () =
  let fn = "Workload.open_tenant" in
  check_positive fn "rate_rps" rate_rps;
  if not (diurnal_amplitude >= 0.0 && diurnal_amplitude <= 1.0) then
    invalid_arg (fn ^ ": diurnal_amplitude must be finite and in [0, 1]");
  check_positive fn "diurnal_period_s" diurnal_period_s;
  Option.iter
    (fun b ->
      if not (Float.is_finite b.burst_factor && b.burst_factor >= 1.0) then
        invalid_arg (fn ^ ": burst_factor must be finite and >= 1");
      check_positive fn "mean_calm_s" b.mean_calm_s;
      check_positive fn "mean_burst_s" b.mean_burst_s)
    burst;
  { t_name = name; t_kernel = kernel; t_features = features;
    t_arrival =
      Open
        { rate_rps; diurnal_amplitude; diurnal_period_s = diurnal_period_s;
          burst } }

let closed_tenant ~name ~kernel ~users ~think_s () =
  if users <= 0 then invalid_arg "Workload.closed_tenant: users <= 0";
  check_positive "Workload.closed_tenant" "think_s" think_s;
  { t_name = name; t_kernel = kernel; t_features = no_features;
    t_arrival = Closed { users; think_s } }

type request = {
  rq_id : int;
  rq_tenant : string;
  rq_kernel : string;
  rq_user : int;
  rq_seq : int;
  rq_arrival_s : float;
  rq_features : (string * float) list;
}

(* Stable across runs and platforms, unlike [Hashtbl.hash] whose contract
   does not promise cross-version stability. *)
let stable_hash s =
  let h = ref 17 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0x3FFFFFFF) s;
  (* avalanche finalizer: the polynomial fold alone leaves near-identical
     strings (tenant0, tenant1, ...) clustered, which would pile them into
     one gap of the balancer's hash ring *)
  let x = !h in
  let x = (x lxor (x lsr 15)) * 0x2C1B3C6D land 0x3FFFFFFF in
  let x = (x lxor (x lsr 12)) * 0x297A2D39 land 0x3FFFFFFF in
  x lxor (x lsr 15)

let tenant_rng ~seed t = Rng.create ((seed * 0x9E3779B1) lxor stable_hash t.t_name)

(* Exponential draw with the given rate; [Rng.float] is in [0, 1) so the
   log argument stays positive. *)
let exp_draw rng ~rate = -.Float.log (1.0 -. Rng.float rng) /. rate

let two_pi = 8.0 *. Float.atan 1.0

let diurnal_factor ~amplitude ~period_s t =
  1.0 +. (amplitude *. Float.sin (two_pi *. t /. period_s))

let rate_at t at =
  match t.t_arrival with
  | Closed _ -> 0.0
  | Open { rate_rps; diurnal_amplitude; diurnal_period_s; _ } ->
      rate_rps
      *. diurnal_factor ~amplitude:diurnal_amplitude ~period_s:diurnal_period_s
           at

(* One tenant's arrivals in [0, horizon) as (t, seq) pairs. *)
let open_arrivals ~seed ~horizon tenant =
  match tenant.t_arrival with
  | Closed _ -> []
  | Open { rate_rps; diurnal_amplitude; burst; _ } ->
      let rng = tenant_rng ~seed tenant in
      let peak_burst =
        match burst with Some b -> b.burst_factor | None -> 1.0
      in
      let peak = rate_rps *. (1.0 +. diurnal_amplitude) *. peak_burst in
      (* burst-state path: [switch_at] is the next state flip *)
      let bursting = ref false in
      let switch_at =
        ref
          (match burst with
          | Some b -> exp_draw rng ~rate:(1.0 /. b.mean_calm_s)
          | None -> infinity)
      in
      let advance_state t =
        match burst with
        | None -> ()
        | Some b ->
            while !switch_at <= t do
              bursting := not !bursting;
              let mean =
                if !bursting then b.mean_burst_s else b.mean_calm_s
              in
              switch_at := !switch_at +. exp_draw rng ~rate:(1.0 /. mean)
            done
      in
      let rec loop t seq acc =
        let t = t +. exp_draw rng ~rate:peak in
        if t >= horizon then List.rev acc
        else begin
          advance_state t;
          let inst =
            rate_at tenant t
            *. (if !bursting then peak_burst else 1.0)
          in
          if Rng.float rng < inst /. peak then
            loop t (seq + 1) ((t, seq) :: acc)
          else loop t seq acc
        end
      in
      loop 0.0 0 []

let generate ?(seed = 0) ~horizon tenants =
  check_positive "Workload.generate" "horizon" horizon;
  let tagged =
    List.concat
      (List.mapi
         (fun ti t ->
           List.map (fun (at, seq) -> (at, ti, seq, t)) (open_arrivals ~seed ~horizon t))
         tenants)
  in
  let sorted =
    List.sort
      (fun (a, ti, sa, _) (b, tj, sb, _) ->
        match compare a b with
        | 0 -> ( match compare ti tj with 0 -> compare sa sb | c -> c)
        | c -> c)
      tagged
  in
  List.mapi
    (fun id (at, _, seq, t) ->
      { rq_id = id; rq_tenant = t.t_name; rq_kernel = t.t_kernel;
        rq_user = -1; rq_seq = seq; rq_arrival_s = at;
        rq_features = t.t_features seq })
    sorted

type closed_user = {
  cu_tenant : tenant;
  cu_user : int;
  cu_think_s : float;
  cu_rng : Rng.t;
  cu_first : float;
}

let closed_users ?(seed = 0) tenants =
  List.concat_map
    (fun t ->
      match t.t_arrival with
      | Open _ -> []
      | Closed { users; think_s } ->
          List.init users (fun u ->
              let rng =
                Rng.create
                  ((seed * 0x9E3779B1)
                  lxor stable_hash (t.t_name ^ "#" ^ string_of_int u))
              in
              let first = Rng.float rng *. think_s in
              { cu_tenant = t; cu_user = u; cu_think_s = think_s;
                cu_rng = rng; cu_first = first }))
    tenants

let user_tenant u = u.cu_tenant.t_name
let user_kernel u = u.cu_tenant.t_kernel
let user_index u = u.cu_user
let first_arrival u = u.cu_first
let next_think u = exp_draw u.cu_rng ~rate:(1.0 /. u.cu_think_s)
let user_features u n = u.cu_tenant.t_features n

(* Checkpoint/restore: a restored run re-derives the user population via
   [closed_users] (same seed, same order) and overwrites each think-time
   stream position. *)
let user_rng_state u = Rng.state u.cu_rng
let set_user_rng_state u s = Rng.set_state u.cu_rng s
