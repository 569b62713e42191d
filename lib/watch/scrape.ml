(* Scrape adapters: where the series store's data comes from.

   A source is a pull function sampled once per watch tick; it returns
   (name, labels, value) triples to append at the tick's time.  The
   registry adapter turns a whole [Metrics] registry into signals —
   counters and gauges become their value (rules compute rates), a
   histogram becomes its count/sum plus the p50/p90/p99 estimates, so the
   dashboard sees quantile timelines without keeping samples.  Custom
   sources wrap any accessor — fabric shard depths, orchestrator breaker
   states, Desim resource queues — as long as the accessor only *reads*:
   a source must never perturb the run it watches. *)

module Metrics = Everest_telemetry.Metrics

type sample = string * (string * string) list * float

type t = { src_name : string; src_sample : now:float -> sample list }

let name s = s.src_name
let sample s ~now = s.src_sample ~now

let of_fn ~name f = { src_name = name; src_sample = f }

(* A histogram's quantile series: name suffix and quantile. *)
let quantiles = [ (":p50", 0.5); (":p90", 0.9); (":p99", 0.99) ]

let of_registry (registry : Metrics.registry) =
  { src_name = "registry";
    src_sample =
      (fun ~now:_ ->
        List.concat_map
          (fun (m : Metrics.metric) ->
            let n = m.Metrics.mname and labels = m.Metrics.labels in
            match m.Metrics.value with
            | Metrics.Counter c -> [ (n, labels, !c) ]
            | Metrics.Gauge g -> [ (n, labels, !g) ]
            | Metrics.Histogram h ->
                (n ^ ":count", labels, float_of_int (Metrics.hist_count h))
                :: (n ^ ":sum", labels, Metrics.hist_sum h)
                :: List.map
                     (fun (suffix, q) ->
                       (n ^ suffix, labels, Metrics.quantile h q))
                     quantiles)
          (Metrics.metrics registry)) }
