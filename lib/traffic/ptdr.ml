(* Probabilistic time-dependent routing (paper refs [37][41]): Monte Carlo
   sampling of link speeds from the learned profiles yields a travel-time
   *distribution* for a route, from which departure-time advice and
   reliability percentiles follow.  This is the kernel EVEREST accelerates
   server-side for millions of navigation clients. *)

open Everest_ml

type distribution = {
  samples : float array;  (* travel times in seconds *)
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize samples =
  {
    samples;
    mean = Metrics.mean samples;
    p50 = Metrics.percentile samples 0.50;
    p90 = Metrics.percentile samples 0.90;
    p99 = Metrics.percentile samples 0.99;
  }

(* One Monte Carlo rollout of the route departing at [depart]. *)
let rollout rng (net : Roadnet.t) (prof : Profiles.t) (links : int list)
    ~depart =
  List.fold_left
    (fun t lid ->
      let period = int_of_float (t /. 3600.0) in
      let sp = Profiles.sample_speed rng prof ~link:lid ~period in
      t +. ((Roadnet.link net lid).Roadnet.length_m /. sp))
    depart links
  |> fun arrive -> arrive -. depart

let monte_carlo ?(seed = 51) (net : Roadnet.t) (prof : Profiles.t)
    (route : Routing.path) ~depart ~n_samples : distribution =
  let rng = Rng.create seed in
  let samples =
    Array.init n_samples (fun _ ->
        rollout rng net prof route.Routing.links ~depart)
  in
  summarize samples

(* Route choice under reliability: among candidate routes, pick the one with
   the best 90th-percentile travel time over 200 samples (risk-averse
   routing). *)
let reliable_route (net : Roadnet.t) (prof : Profiles.t)
    (routes : Routing.path list) ~depart =
  let scored =
    List.map
      (fun r ->
        let d = monte_carlo ~seed:52 net prof r ~depart ~n_samples:200 in
        (r, Metrics.percentile d.samples 0.9))
      routes
  in
  List.fold_left
    (fun best (r, q) ->
      match best with
      | Some (_, bq) when bq <= q -> best
      | _ -> Some (r, q))
    None scored

(* Convergence study: half-width of the mean's 95% CI versus sample count. *)
let convergence (net : Roadnet.t) (prof : Profiles.t) (route : Routing.path)
    ~depart ~sample_counts =
  List.map
    (fun n ->
      let d = monte_carlo ~seed:53 net prof route ~depart ~n_samples:n in
      let sd = Metrics.stddev d.samples in
      (n, d.mean, 1.96 *. sd /. sqrt (float_of_int n)))
    sample_counts

(* Alternative routes: k shortest-ish by penalizing used links. *)
let alternatives ?(k = 3) (net : Roadnet.t) (prof : Profiles.t) ~src ~dst
    ~period =
  let penalties : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let cost (l : Roadnet.link) =
    let base =
      l.Roadnet.length_m /. Profiles.mean_speed prof ~link:l.Roadnet.link_id ~period
    in
    base *. Option.value ~default:1.0 (Hashtbl.find_opt penalties l.Roadnet.link_id)
  in
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match Routing.shortest net ~cost ~src ~dst with
      | None -> List.rev acc
      | Some p ->
          List.iter
            (fun lid ->
              Hashtbl.replace penalties lid
                (1.5 *. Option.value ~default:1.0 (Hashtbl.find_opt penalties lid)))
            p.Routing.links;
          (* drop duplicates *)
          if List.exists (fun (q : Routing.path) -> q.Routing.links = p.Routing.links) acc
          then go (n - 1) acc
          else go (n - 1) (p :: acc)
  in
  go k []
