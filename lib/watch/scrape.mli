(** Scrape adapters: pull functions sampled once per watch tick.

    A source returns (name, labels, value) triples recorded into the
    series store at the tick's time.  Sources must only {e read} the
    system they sample — a scrape must never perturb the run it
    watches. *)

type sample = string * (string * string) list * float
type t

val name : t -> string
val sample : t -> now:float -> sample list
val of_fn : name:string -> (now:float -> sample list) -> t

(** Every metric of a registry as signals: counters and gauges become
    their value; a histogram becomes [name:count], [name:sum], [name:p50],
    [name:p90] and [name:p99]. *)
val of_registry : Everest_telemetry.Metrics.registry -> t
