(* Per-layer cost ledger, recorded from outside the program.

   Every timed call into a layer's public functions is one span of an
   [Everest_telemetry.Trace] on a monotonic wall clock, opened and closed
   by the benchmark's own code; the request id, when there is one, is the
   span's parent, so the spans of one request share an identifier.  The
   replayed calls are leaves, so a layer's self time is the sum of its
   span durations.  Allocation is the [Gc.minor_words] delta read inside
   the span, which leaves the tracer's own allocation out. *)

module Trace = Everest_telemetry.Trace

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The layers, in report order.  [per_request] layers are called once per
   request (or per batch) and report latency quantiles of their calls. *)
let layers =
  [ ("workload", false); ("admission", true); ("slo", true);
    ("orchestrator", true); ("metrics", true); ("balancer", true);
    ("batcher", true); ("autoscale", false); ("desim", false);
    ("watch", true); ("recovery", false); ("render", false);
    ("fabric", false); ("dag", false); ("scheduler", false);
    ("planlint", false); ("executor", false); ("report", false) ]

(* Layer-specific numbers beside the four every layer reports. *)
let extras =
  [ ("slo.window_events", "count"); ("orchestrator.retries", "count");
    ("batcher.mean_batch", "requests"); ("desim.events", "count");
    ("watch.work_share", "ratio"); ("recovery.work_share", "ratio");
    ("recovery.journal_kib", "KiB"); ("recovery.snapshot_kib", "KiB");
    ("recovery.resume_s", "s"); ("recovery.plan_resume_s", "s");
    ("fabric.sim_p99_ms", "ms");
    ("fabric.sim_availability", "ratio"); ("executor.sim_makespan_s", "s") ]

type layer = {
  per_request : bool;
  mutable calls : int;
  mutable self_s : float;
  mutable words : float;
  mutable durs : float list;  (* per-span durations of per-request layers *)
}

type t = {
  tracer : Trace.t;
  tbl : (string, layer) Hashtbl.t;
  extra : (string, float) Hashtbl.t;
}

let create () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, per_request) ->
      Hashtbl.replace tbl name
        { per_request; calls = 0; self_s = 0.0; words = 0.0; durs = [] })
    layers;
  { tracer = Trace.create ~capacity:2_000_000 ~clock:now ();
    tbl; extra = Hashtbl.create 16 }

let layer t name =
  match Hashtbl.find_opt t.tbl name with
  | Some l -> l
  | None -> invalid_arg ("Ledger: unknown layer " ^ name)

(* Time one call into [name]; [n] is how many layer operations the call
   performs (one span may cover a batch of cheap operations). *)
let span t name ?rq ?(n = 1) f =
  let l = layer t name in
  let s = Trace.start t.tracer ?parent:rq name in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  Trace.finish t.tracer s;
  let d = Trace.duration s in
  l.calls <- l.calls + n;
  l.self_s <- l.self_s +. d;
  l.words <- l.words +. (w1 -. w0);
  if l.per_request then l.durs <- d :: l.durs;
  r

(* Cost that cannot be replayed call by call (the fabric residual). *)
let add t name ~calls ~self_s ~words =
  let l = layer t name in
  l.calls <- l.calls + calls;
  l.self_s <- l.self_s +. self_s;
  l.words <- l.words +. words

let set_extra t key v =
  if not (List.mem_assoc key extras) then invalid_arg ("Ledger: unknown extra " ^ key);
  Hashtbl.replace t.extra key v

let self_s t name = (layer t name).self_s
let words t name = (layer t name).words
let calls t name = (layer t name).calls

let quantile_us l q =
  if l.durs = [] then 0.0 else 1e6 *. Everest_observe.Slo.exact_quantile l.durs q

(* Every per-layer metric as (name, value, unit), zero where this workload
   does not exercise the layer, so each run reports the same names. *)
let metrics t ~base_s =
  List.concat_map
    (fun (name, per_request) ->
      let l = layer t name in
      let base =
        [ (name ^ ".calls", float_of_int l.calls, "count");
          (name ^ ".self_s", l.self_s, "s");
          (name ^ ".share", l.self_s /. base_s, "ratio");
          ( name ^ ".alloc_w_per_call",
            (if l.calls = 0 then 0.0 else l.words /. float_of_int l.calls),
            "words" ) ]
      in
      if per_request then
        base
        @ [ (name ^ ".p50_us", quantile_us l 0.5, "us");
            (name ^ ".p99_us", quantile_us l 0.99, "us") ]
      else base)
    layers
  @ List.map
      (fun (key, unit) ->
        (key, Option.value ~default:0.0 (Hashtbl.find_opt t.extra key), unit))
      extras

(* The ledger ranked by share, with the coverage line and the tracer's
   own cost per span. *)
let table t ~base_s ~covered ~empty_span_ns =
  let buf = Buffer.create 2048 in
  let rows =
    List.filter (fun (name, _) -> (layer t name).calls > 0) layers
    |> List.map (fun (name, _) -> (name, layer t name))
    |> List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s)
  in
  Printf.bprintf buf "  %-13s %9s %10s %7s %13s %9s %9s\n" "layer" "calls"
    "self_s" "share" "alloc_w/call" "p50_us" "p99_us";
  List.iter
    (fun (name, l) ->
      let q p = if l.per_request then Printf.sprintf "%.2f" (quantile_us l p) else "-" in
      Printf.bprintf buf "  %-13s %9d %10.4f %6.1f%% %13.1f %9s %9s\n" name
        l.calls l.self_s
        (100.0 *. l.self_s /. base_s)
        (l.words /. float_of_int l.calls)
        (q 0.5) (q 0.99))
    rows;
  let replayed = List.fold_left (fun acc n -> acc +. self_s t n) 0.0 covered in
  let coverage = replayed /. base_s in
  Printf.bprintf buf
    "  coverage: %.1f%% of %.3f s is replayed layer time\n\
    \  empty span: %.0f ns per replayed call (tracer overhead, included above)\n"
    (100.0 *. coverage) base_s empty_span_ns;
  (Buffer.contents buf, coverage)

(* Cost of one span around an empty call, on a throwaway ledger. *)
let empty_span_ns () =
  let t = create () in
  let n = 100_000 in
  let t0 = now () in
  for _ = 1 to n do
    span t "fabric" ignore
  done;
  (now () -. t0) /. float_of_int n *. 1e9

(* Chrome trace of the replay.  Every call is in the ledger; the file keeps
   the spans of the first [keep] requests and the first [keep] spans of
   each layer without a request, so it stays a few MiB. *)
let write_chrome_trace t path =
  let keep = 2048 in
  let seen = Hashtbl.create 32 in
  let spans =
    List.filter
      (fun (s : Trace.span) ->
        match s.Trace.parent with
        | Some rq -> rq < keep
        | None ->
            let k = Option.value ~default:0 (Hashtbl.find_opt seen s.Trace.name) in
            Hashtbl.replace seen s.Trace.name (k + 1);
            k < keep)
      (Trace.spans t.tracer)
  in
  Everest_telemetry.Chrome_trace.write_processes path
    [ Everest_telemetry.Chrome_trace.of_spans ~process_name:"everest_bench replay"
        spans ]
