(* Scoped wall-clock instrumentation for code that has no tracer of its
   own (the compiler's DSE stages).

   Spans go to a process-global tracer that is [Trace.noop] until someone
   installs one for a scope ([with_tracer] in the CLI, tests, benchmarks),
   so plain library use pays a single physical-equality check per probe.
   [time_block] also records the duration into a histogram, in
   [Metrics.default] unless a registry is passed.  Counters and gauges are
   written through [Metrics] directly. *)

let tracer = ref Trace.noop

(* Install [t] for the duration of [f]. *)
let with_tracer t f =
  let prev = !tracer in
  tracer := t;
  Fun.protect ~finally:(fun () -> tracer := prev) f

(* Scoped span on the global tracer (no-op when none installed) that
   also records the wall-clock duration into histogram [name] (suffix
   "_s") in the default registry — one call gives both the trace entry
   and the aggregate timing distribution. *)
let time_block ?registry ?labels ?attrs name f =
  let t = !tracer in
  let t0 = Clock.wall () in
  let record () =
    Metrics.observe
      (Metrics.histogram ?registry ?labels (name ^ "_s"))
      (Clock.wall () -. t0)
  in
  if Trace.is_noop t then
    Fun.protect ~finally:record (fun () -> f ())
  else
    Trace.with_span t ?attrs name (fun _ ->
        Fun.protect ~finally:record (fun () -> f ()))
