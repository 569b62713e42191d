(* Tests for everest_telemetry: span nesting and the bounded sink, histogram
   quantiles against known distributions, Chrome-trace JSON well-formedness,
   metrics-registry label handling, and closed-loop runs (executor and
   orchestrator) producing traces that agree with the stats. *)

open Everest_telemetry
open Everest_platform
open Everest_workflow
open Everest_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* The earliest-started span with this name. *)
let find t name = List.find_opt (fun s -> String.equal s.Trace.name name) (Trace.spans t)

(* One tracer as a Chrome trace, as [Chrome_trace.write_processes] writes it. *)
let chrome ?process_name t =
  Chrome_trace.processes_to_string [ Chrome_trace.of_tracer ?process_name t ]

(* ---- tracing ----------------------------------------------------------------- *)

let test_span_nesting () =
  let clk = Clock.manual () in
  let t = Trace.create ~clock:(Clock.of_manual clk) () in
  Trace.with_span t ~attrs:[ ("k", Trace.S "v") ] "outer" (fun _ ->
      Clock.advance clk 1.0;
      Trace.with_span t "inner" (fun _ ->
          Clock.advance clk 2.0;
          Trace.with_span t "leaf" (fun _ -> Clock.advance clk 0.5));
      Clock.advance clk 1.0);
  checki "three spans" 3 (Trace.span_count t);
  let outer = Option.get (find t "outer") in
  let inner = Option.get (find t "inner") in
  let leaf = Option.get (find t "leaf") in
  checkb "outer is root" true (outer.Trace.parent = None);
  checkb "inner under outer" true (inner.Trace.parent = Some outer.Trace.id);
  checkb "leaf under inner" true (leaf.Trace.parent = Some inner.Trace.id);
  checkb "durations nest" true
    (Trace.duration leaf < Trace.duration inner
    && Trace.duration inner < Trace.duration outer);
  Alcotest.check (Alcotest.float 1e-9) "outer duration" 4.5
    (Trace.duration outer);
  checks "attr recorded" "v" (Option.get (Trace.attr_string outer "k"))

let test_explicit_parent_across_callbacks () =
  (* asynchronous nesting: the parent is closed-over, not on the stack *)
  let t = Trace.create ~clock:(fun () -> 0.0) () in
  let task = Trace.start t "task" in
  let xfer = Trace.start t ~parent:task.Trace.id "xfer" in
  Trace.finish t xfer;
  Trace.finish t task;
  checkb "explicit parent" true (xfer.Trace.parent = Some task.Trace.id);
  checki "both recorded" 2 (Trace.span_count t)

let test_bounded_sink () =
  let t = Trace.create ~capacity:10 ~clock:(fun () -> 0.0) () in
  for i = 0 to 24 do
    Trace.finish t (Trace.start t (Printf.sprintf "s%d" i))
  done;
  checki "capacity respected" 10 (Trace.span_count t);
  checki "overflow counted" 15 (Trace.dropped t);
  checki "listed = capacity" 10 (List.length (Trace.spans t));
  checki "dropped spans still consume ids" 25 (Trace.next_span_id t)

let test_pooled_sink_views () =
  (* the pooled array sink must agree with both list views, in the right
     orders, and survive growth past the initial pool size *)
  let clock = ref 0.0 in
  let t = Trace.create ~clock:(fun () -> !clock) () in
  let n = 1000 in
  for i = 0 to n - 1 do
    clock := float_of_int i;
    Trace.finish t (Trace.start t (Printf.sprintf "s%d" i))
  done;
  checki "count" n (Trace.span_count t);
  checkb "spans in start order" true
    (List.map (fun s -> s.Trace.id) (Trace.spans t) = List.init n Fun.id);
  checkb "spans_rev is newest first" true
    (List.map (fun s -> s.Trace.id) (Trace.spans_rev t)
    = List.rev (List.init n Fun.id));
  let seen = ref 0 in
  Trace.iter t (fun s ->
      if s.Trace.id = !seen then incr seen);
  checki "iter walks start order" n !seen

let test_noop_tracer_records_nothing () =
  Trace.with_span Trace.noop "x" (fun _ -> ());
  checki "noop stays empty" 0 (Trace.span_count Trace.noop)

(* ---- histogram quantiles ------------------------------------------------------ *)

let test_histogram_uniform () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "lat" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  checki "count" 1000 (Metrics.hist_count h);
  Alcotest.check (Alcotest.float 1e-6) "sum" 500500.0 (Metrics.hist_sum h);
  Alcotest.check (Alcotest.float 1e-6) "mean" 500.5 (Metrics.hist_mean h);
  (* log-scale buckets at ratio 10^0.1: estimates within ~30% *)
  let within q lo hi =
    let v = Metrics.quantile h q in
    checkb (Printf.sprintf "p%02.0f=%g in [%g,%g]" (q *. 100.) v lo hi) true
      (v >= lo && v <= hi)
  in
  within 0.5 380.0 650.0;
  within 0.9 700.0 1100.0;
  within 0.99 850.0 1150.0

let test_histogram_constant () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "c" in
  for _ = 1 to 500 do
    Metrics.observe h 0.004
  done;
  List.iter
    (fun q ->
      let v = Metrics.quantile h q in
      checkb
        (Printf.sprintf "constant p%g=%g within bucket" q v)
        true
        (v >= 0.004 /. 1.3 && v <= 0.004 *. 1.3))
    [ 0.5; 0.9; 0.99 ];
  checkb "max clamps estimate" true (Metrics.quantile h 1.0 <= 0.004 +. 1e-12)

let test_histogram_bimodal () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "b" in
  for _ = 1 to 90 do Metrics.observe h 0.001 done;
  for _ = 1 to 10 do Metrics.observe h 1.0 done;
  let p50 = Metrics.quantile h 0.5 and p99 = Metrics.quantile h 0.99 in
  checkb "p50 in low mode" true (p50 < 0.01);
  checkb "p99 in high mode" true (p99 > 0.5)

(* ---- metrics registry --------------------------------------------------------- *)

let test_registry_labels () =
  let r = Metrics.create_registry () in
  let a = Metrics.counter ~registry:r ~labels:[ ("node", "p9") ] "tasks" in
  let b = Metrics.counter ~registry:r ~labels:[ ("node", "cf0") ] "tasks" in
  Metrics.inc a;
  Metrics.inc a;
  Metrics.inc b;
  checkb "distinct label sets are distinct cells" true
    (!a = 2.0 && !b = 1.0);
  (* identity is order-insensitive on label keys *)
  let c1 =
    Metrics.counter ~registry:r ~labels:[ ("x", "1"); ("y", "2") ] "multi"
  in
  Metrics.inc c1;
  let c2 =
    Metrics.counter ~registry:r ~labels:[ ("y", "2"); ("x", "1") ] "multi"
  in
  Metrics.inc c2;
  Alcotest.check (Alcotest.float 0.0) "same cell" 2.0 !c1;
  (* same name + labels as a different kind must be rejected *)
  (match Metrics.gauge ~registry:r ~labels:[ ("node", "p9") ] "tasks" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must be rejected");
  (* invalid names rejected *)
  (match Metrics.counter ~registry:r "bad name!" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid name must be rejected");
  (* counters never go down *)
  match Metrics.inc ~by:(-1.0) a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative increments must be rejected"

let test_render_formats () =
  let r = Metrics.create_registry () in
  Metrics.inc ~by:3.0 (Metrics.counter ~registry:r ~labels:[ ("w", "d") ] "t_total");
  Metrics.set (Metrics.gauge ~registry:r "g") 1.5;
  Metrics.observe (Metrics.histogram ~registry:r "h_s") 0.25;
  let text = Metrics.render_text r in
  checkb "text has counter" true
    (Astring.String.is_infix ~affix:"t_total{w=\"d\"} 3" text
     || Astring.String.is_infix ~affix:"t_total" text);
  let prom = Metrics.render_prometheus r in
  List.iter
    (fun affix ->
      checkb ("prom contains " ^ affix) true
        (Astring.String.is_infix ~affix prom))
    [ "# TYPE t_total counter"; "# TYPE g gauge"; "# TYPE h_s histogram";
      "h_s_count 1"; "h_s_sum 0.25"; "le=\"+Inf\"" ]

(* ---- chrome trace JSON well-formedness ----------------------------------------- *)

(* A minimal JSON reader: enough to verify the exporter emits valid JSON
   with the trace-event structure, without a json dependency. *)
module Json = struct
  type t =
    | Null | Bool of bool | Num of float | Str of string
    | Arr of t list | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail m = raise (Bad (Printf.sprintf "%s at %d" m !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (peek () = ' ' || peek () = '\n' || peek () = '\t'
                      || peek () = '\r')
      then (advance (); skip_ws ())
    in
    let expect c =
      if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
    in
    let literal lit v =
      if !pos + String.length lit <= n
         && String.sub s !pos (String.length lit) = lit
      then (pos := !pos + String.length lit; v)
      else fail ("expected " ^ lit)
    in
    let string_ () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match peek () with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (match peek () with
              | '"' -> Buffer.add_char b '"'; advance ()
              | '\\' -> Buffer.add_char b '\\'; advance ()
              | '/' -> Buffer.add_char b '/'; advance ()
              | 'n' -> Buffer.add_char b '\n'; advance ()
              | 't' -> Buffer.add_char b '\t'; advance ()
              | 'r' -> Buffer.add_char b '\r'; advance ()
              | 'b' | 'f' -> advance ()
              | 'u' ->
                  advance ();
                  for _ = 1 to 4 do
                    (match peek () with
                    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
                    | _ -> fail "bad \\u escape")
                  done
              | _ -> fail "bad escape");
              go ()
          | c -> Buffer.add_char b c; advance (); go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
        || c = 'E'
      in
      while !pos < n && num_char (peek ()) do advance () done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then (advance (); Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = string_ () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); members ((k, v) :: acc)
              | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then (advance (); Arr [])
          else
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); elements (v :: acc)
              | ']' -> advance (); Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elements []
      | '"' -> Str (string_ ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (number ())
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

let test_chrome_trace_wellformed () =
  let clk = Clock.manual () in
  let t = Trace.create ~clock:(Clock.of_manual clk) () in
  Trace.name_track t 1 "node \"p9\"";
  Trace.with_span t ~attrs:[ ("escaped", Trace.S "a\"b\\c\nd") ]
    "outer" (fun _ ->
      Clock.advance clk 0.5;
      Trace.with_span t
        ~attrs:
          [ ("bytes", Trace.I 4096); ("ratio", Trace.F 0.5); ("ok", Trace.B true) ]
        "in,ner"
        (fun _ -> Clock.advance clk 0.25));
  let js = chrome ~process_name:"exec" t in
  let parsed =
    match Json.parse js with
    | v -> v
    | exception Json.Bad m -> Alcotest.failf "invalid JSON: %s" m
  in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  (* process metadata + thread name + 2 spans *)
  checki "event count" 4 (List.length events);
  let xs =
    List.filter
      (fun e -> Json.member "ph" e = Some (Json.Str "X"))
      events
  in
  checki "two complete events" 2 (List.length xs);
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          checkb (k ^ " present") true (Json.member k e <> None))
        [ "name"; "ts"; "dur"; "pid"; "tid"; "args" ])
    xs;
  (* the open-span case: unfinished spans must not be exported *)
  let t2 = Trace.create ~clock:(fun () -> 1.0) () in
  let _open = Trace.start t2 "never-finished" in
  let js2 = chrome t2 in
  (match Json.parse js2 with
  | v ->
      let evs =
        match Json.member "traceEvents" v with
        | Some (Json.Arr e) -> e
        | _ -> []
      in
      checki "only process metadata" 1 (List.length evs)
  | exception Json.Bad m -> Alcotest.failf "invalid JSON: %s" m)

(* ---- executor: trace/stats agreement ------------------------------------------- *)

let test_executor_trace_agrees_with_stats () =
  let registry = Metrics.create_registry () in
  let d = Dag.layered ~seed:5 ~layers:4 ~width:6 ~flops:5e9 ~bytes:1e6 () in
  let _, stats =
    Executor.run_on_demonstrator ~policy:"min-load"
      ~faults:(Everest_resilience.Faults.of_failures [ ("cf0", 1e-4); ("cf1", 2e-4) ])
      ~tracer:`Sim ~registry d
  in
  checkb "trace non-empty" true (stats.Executor.span_log <> []);
  (* the injected failures must actually bite, or the retry/bytes agreement
     below degenerates to 0 = 0 *)
  checkb "failures actually retried" true (stats.Executor.retries > 0);
  checki "tasks from trace" (Dag.size d)
    (Executor.trace_tasks_completed stats.Executor.span_log);
  checki "retries from trace" stats.Executor.retries
    (Executor.trace_retries stats.Executor.span_log);
  checki "bytes from trace" stats.Executor.bytes_moved
    (Executor.trace_bytes_moved stats.Executor.span_log);
  (* and the metrics registry tells the same story *)
  let counter name =
    match Metrics.find ~registry ~labels:[ ("workflow", "layered") ] name with
    | Some { Metrics.value = Metrics.Counter c; _ } -> int_of_float !c
    | _ -> -1
  in
  checki "tasks metric" (Dag.size d) (counter "workflow_tasks_completed_total");
  checki "retries metric" stats.Executor.retries
    (counter "workflow_task_retries_total");
  checki "bytes metric" stats.Executor.bytes_moved
    (counter "workflow_bytes_moved_total");
  checki "transfers metric" stats.Executor.transfers
    (counter "workflow_transfers_total");
  (* spans are in simulated time: all within the makespan *)
  checkb "spans within makespan" true
    (List.for_all
       (fun s ->
         Trace.finished s
         && s.Trace.start_s >= 0.0
         && s.Trace.end_s <= stats.Executor.makespan +. 1e-9)
       stats.Executor.span_log)

let test_executor_default_is_untraced () =
  let d = Dag.fork_join ~width:4 ~worker_flops:1e9 ~worker_bytes:1e5 ~chunk_bytes:4096 () in
  let _, stats = Executor.run_on_demonstrator ~policy:"heft" d in
  checkb "no spans by default" true (stats.Executor.span_log = [])

(* ---- desim wait statistics ------------------------------------------------------ *)

let test_resource_wait_stats () =
  let sim = Desim.create () in
  let r = Desim.resource "dev" 1 in
  (* three jobs contend for one unit, 1s each: waits of 0, 1 and 2 s *)
  for _ = 1 to 3 do
    Desim.acquire sim r (fun () ->
        Desim.schedule sim 1.0 (fun () -> Desim.release sim r))
  done;
  Desim.run sim;
  Alcotest.check (Alcotest.float 1e-9) "total wait" 3.0 (Desim.total_wait_s r);
  Alcotest.check (Alcotest.float 1e-9) "mean wait" 1.5 (Desim.mean_wait_s r);
  (* the stats feed telemetry gauges *)
  let registry = Metrics.create_registry () in
  Desim.publish_resource ~registry r;
  let gauge name =
    match Metrics.find ~registry ~labels:[ ("resource", "dev") ] name with
    | Some { Metrics.value = Metrics.Gauge g; _ } -> !g
    | _ -> Alcotest.failf "gauge %s missing" name
  in
  Alcotest.check (Alcotest.float 0.0) "peak" 1.0 (gauge "desim_resource_peak");
  Alcotest.check (Alcotest.float 0.0) "two queued" 2.0 (gauge "desim_resource_waits");
  Alcotest.check (Alcotest.float 1e-9) "gauge mean wait" 1.5
    (gauge "desim_resource_mean_wait_s")

(* A snapshot is idempotent: publishing a contended resource twice leaves
   the registry as publishing it once does. *)
let test_resource_publish_idempotent () =
  let sim = Desim.create () in
  let r = Desim.resource "dev" 1 in
  for _ = 1 to 3 do
    Desim.acquire sim r (fun () ->
        Desim.schedule sim 1.0 (fun () -> Desim.release sim r))
  done;
  Desim.run sim;
  let once = Metrics.create_registry () and twice = Metrics.create_registry () in
  Desim.publish_resource ~registry:once r;
  Desim.publish_resource ~registry:twice r;
  Desim.publish_resource ~registry:twice r;
  checks "same registry" (Metrics.render_text once) (Metrics.render_text twice)

(* ---- orchestrator closed loop --------------------------------------------------- *)

let small_estimate cycles =
  { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area; cycles;
    ii = 1; clock_mhz = 250.0; dynamic_power_w = 8.0 }

let test_orchestrator_closed_loop_traced () =
  let registry = Metrics.create_registry () in
  let cluster = Cluster.create [ Cluster.power9_node "p9" ] in
  let tracer = Orchestrator.sim_tracer cluster in
  let orch = Orchestrator.create ~tracer ~registry cluster ~host_name:"p9" in
  let knowledge =
    Everest_autotune.Knowledge.create "k"
      [ { Everest_autotune.Knowledge.variant = "sw"; features = [];
          metrics = [ ("time_s", 0.01) ] };
        { Everest_autotune.Knowledge.variant = "hw"; features = [];
          metrics = [ ("time_s", 0.001) ] } ]
  in
  let _ =
    Orchestrator.deploy orch ~kname:"k"
      ~impls:
        [ ("sw", Orchestrator.Sw { flops = 5e8; bytes = 1e5; threads = 2 });
          ("hw",
           Orchestrator.Hw
             { bitstream = "k"; estimate = small_estimate 100_000;
               in_bytes = 4096; out_bytes = 4096 }) ]
      ~knowledge
      ~goal:(Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s"))
  in
  let n = 25 in
  let log =
    Orchestrator.serve orch ~kernel:"k" ~n ~policy:Orchestrator.Adaptive ()
  in
  checki "all requests served" n (List.length log);
  let spans = Trace.spans tracer in
  checkb "closed loop produced spans" true (spans <> []);
  let by_prefix p =
    List.filter
      (fun (s : Trace.span) ->
        String.length s.Trace.name >= String.length p
        && String.sub s.Trace.name 0 (String.length p) = p)
      spans
  in
  checki "one request span per request" n (List.length (by_prefix "request:"));
  checki "one select per request" n (List.length (by_prefix "select"));
  checki "one execute per request" n (List.length (by_prefix "execute:"));
  (* children point at their request span *)
  checkb "execute nests under request" true
    (List.for_all
       (fun (s : Trace.span) -> s.Trace.parent <> None)
       (by_prefix "execute:"));
  (* the metrics registry saw the loop *)
  let counter name =
    match Metrics.find ~registry ~labels:[ ("kernel", "k") ] name with
    | Some { Metrics.value = Metrics.Counter c; _ } -> int_of_float !c
    | _ -> -1
  in
  checki "requests counted" n (counter "orchestrator_requests_total");
  (* request latencies landed in the histogram *)
  (match
     Metrics.find ~registry ~labels:[ ("kernel", "k") ]
       "orchestrator_request_latency_s"
   with
  | Some { Metrics.value = Metrics.Histogram h; _ } ->
      checki "latency histogram count" n (Metrics.hist_count h)
  | _ -> Alcotest.fail "latency histogram missing")

(* ---- probe API ------------------------------------------------------------------ *)

let test_probe_scoped_tracer () =
  let registry = Metrics.create_registry () in
  let t = Trace.create ~clock:Clock.wall () in
  Probe.with_tracer t (fun () -> Probe.time_block ~registry "work" ignore);
  checki "span captured" 1 (Trace.span_count t);
  Probe.time_block ~registry "work" ignore;
  checki "nothing recorded outside the scope" 1 (Trace.span_count t)

let test_probe_time_block_observes () =
  let registry = Metrics.create_registry () in
  let r = Probe.time_block ~registry "stage" (fun () -> 42) in
  checki "result threaded" 42 r;
  match Metrics.find ~registry "stage_s" with
  | Some { Metrics.value = Metrics.Histogram h; _ } ->
      checki "one observation" 1 (Metrics.hist_count h)
  | _ -> Alcotest.fail "duration histogram missing"

(* Timestamps survive the export exactly: a span deep into a run, lasting
   a microsecond and a half, parses back to the same ts and dur. *)
let test_chrome_trace_exact_times () =
  let now = ref 123.4567891 in
  let t = Trace.create ~clock:(fun () -> !now) () in
  let s = Trace.start t "late" in
  now := !now +. 1.5e-6;
  Trace.finish t s;
  let parsed =
    match Json.parse (chrome t) with
    | v -> v
    | exception Json.Bad m -> Alcotest.failf "invalid JSON: %s" m
  in
  let ev =
    match Json.member "traceEvents" parsed with
    | Some (Json.Arr evs) -> (
        match List.find_opt (fun e -> Json.member "ph" e = Some (Json.Str "X")) evs with
        | Some e -> e
        | None -> Alcotest.fail "no complete event")
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  let num k =
    match Json.member k ev with
    | Some (Json.Num f) -> f
    | _ -> Alcotest.failf "%s missing" k
  in
  Alcotest.check (Alcotest.float 0.0) "ts" (s.Trace.start_s *. 1e6) (num "ts");
  Alcotest.check (Alcotest.float 0.0) "dur" (Trace.duration s *. 1e6) (num "dur")

(* ---- chrome trace duplicate keys ------------------------------------------------- *)

(* Every args object must bind each key once: shadowed attribute bindings
   (Trace.finish prepends) export as their newest value, and a user
   attribute named "parent" must not collide with the synthetic parent
   arg. *)
let test_chrome_trace_dedupes_args () =
  let t = Trace.create ~clock:(fun () -> 0.0) () in
  let s =
    Trace.start t
      ~attrs:[ ("status", Trace.S "running"); ("parent", Trace.S "user-attr") ]
      "task"
  in
  (* finish-time attrs shadow start-time attrs *)
  Trace.finish t ~attrs:[ ("status", Trace.S "ok") ] s;
  checki "raw attrs carry the duplicate" 3 (List.length s.Trace.attrs);
  let js = chrome t in
  let parsed =
    match Json.parse js with
    | v -> v
    | exception Json.Bad m -> Alcotest.failf "invalid JSON: %s" m
  in
  let args =
    match Json.member "traceEvents" parsed with
    | Some (Json.Arr evs) -> (
        match
          List.find_map
            (fun e ->
              if Json.member "ph" e = Some (Json.Str "X") then
                Json.member "args" e
              else None)
            evs
        with
        | Some (Json.Obj kvs) -> kvs
        | _ -> Alcotest.fail "span args missing")
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let keys = List.map fst args in
  checki "each key bound once"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  checkb "newest status wins" true
    (List.assoc_opt "status" args = Some (Json.Str "ok"));
  (* the synthetic parent wins over the user attribute of the same name *)
  checkb "parent is the synthetic arg" true
    (List.assoc_opt "parent" args = Some (Json.Num (-1.0)))

(* ---- clocks ---------------------------------------------------------------------- *)

let test_clock_monotonic () =
  let sample clock = Array.init 64 (fun _ -> clock ()) in
  let nondecreasing xs =
    let ok = ref true in
    Array.iteri (fun i x -> if i > 0 then ok := !ok && x >= xs.(i - 1)) xs;
    !ok
  in
  checkb "wall clock non-decreasing" true (nondecreasing (sample Clock.wall));
  let m = Clock.manual ~start:5.0 () in
  let clk = Clock.of_manual m in
  Alcotest.check (Alcotest.float 0.0) "manual start" 5.0 (clk ());
  Clock.advance m 2.5;
  Alcotest.check (Alcotest.float 0.0) "manual advance" 7.5 (clk ())

let test_probe_under_manual_clock () =
  (* probe spans sample whatever clock the installed tracer carries, so a
     simulated clock flows through the global facade untouched (the
     histograms get wall time) *)
  let m = Clock.manual ~start:100.0 () in
  let t = Trace.create ~clock:(Clock.of_manual m) () in
  let registry = Metrics.create_registry () in
  Probe.with_tracer t (fun () ->
      Probe.time_block ~registry "outer" (fun () ->
          Clock.advance m 3.0;
          Probe.time_block ~registry "inner" (fun () -> Clock.advance m 1.0)));
  let outer = Option.get (find t "outer") in
  let inner = Option.get (find t "inner") in
  Alcotest.check (Alcotest.float 1e-12) "outer start in sim time" 100.0
    outer.Trace.start_s;
  Alcotest.check (Alcotest.float 1e-12) "outer spans both advances" 4.0
    (Trace.duration outer);
  Alcotest.check (Alcotest.float 1e-12) "inner nested in sim time" 1.0
    (Trace.duration inner);
  checkb "inner under outer" true (inner.Trace.parent = Some outer.Trace.id)

(* ---- prometheus golden ----------------------------------------------------------- *)

let test_prometheus_golden () =
  let r = Metrics.create_registry () in
  Metrics.inc ~by:7.0
    (Metrics.counter ~registry:r ~labels:[ ("node", "p9") ]
       ~help:"tasks finished" "tasks_total");
  Metrics.set (Metrics.gauge ~registry:r "depth") 3.0;
  let h = Metrics.histogram ~registry:r "lat_s" in
  Metrics.observe h 0.004;
  Metrics.observe h 0.004;
  Metrics.observe h 2.0;
  let expected =
    "# TYPE depth gauge\n\
     depth 3\n\
     # TYPE lat_s histogram\n\
     lat_s_bucket{le=\"0.00501187\"} 2\n\
     lat_s_bucket{le=\"2.51189\"} 3\n\
     lat_s_bucket{le=\"+Inf\"} 3\n\
     lat_s_sum 2.008\n\
     lat_s_count 3\n\
     # HELP tasks_total tasks finished\n\
     # TYPE tasks_total counter\n\
     tasks_total{node=\"p9\"} 7\n"
  in
  checks "prometheus exposition" expected (Metrics.render_prometheus r)

(* The exposition format escapes exactly backslash, double quote and
   newline in label values; tabs and UTF-8 bytes must pass through
   verbatim (OCaml's %S would corrupt both). *)
let test_prometheus_label_escaping () =
  let r = Metrics.create_registry () in
  Metrics.set
    (Metrics.gauge ~registry:r
       ~labels:[ ("path", "C:\\tmp\\a\"b\nc") ]
       "esc")
    1.0;
  Metrics.set
    (Metrics.gauge ~registry:r ~labels:[ ("name", "caf\xc3\xa9\tbar") ] "utf8")
    2.0;
  let expected =
    "# TYPE esc gauge\n\
     esc{path=\"C:\\\\tmp\\\\a\\\"b\\nc\"} 1\n\
     # TYPE utf8 gauge\n\
     utf8{name=\"caf\xc3\xa9\tbar\"} 2\n"
  in
  checks "prometheus label escaping" expected (Metrics.render_prometheus r);
  checks "escaper on plain value" "plain"
    (Metrics.escape_label_value "plain")

(* ---- quantile properties --------------------------------------------------------- *)

(* Nearest-rank empirical quantile, matching the histogram's "first bucket
   with cumulative count >= q*n" scan. *)
let exact_quantile xs q =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  arr.(max 0 (min (n - 1) (rank - 1)))

(* [Slo.exact_quantile] selects the nearest rank in place.  It must
   return the reference's value and an element of the list, over lists
   with duplicates, zeros and NaNs of both signs (NaNs rank lowest under
   [compare]) and single elements, and 0 on the empty list.  Equal under
   [compare] is all a rank fixes: which of two zeros, or two NaNs, of
   different signs a sort leaves there depends on its internal order. *)
let prop_exact_quantile_selects =
  let value =
    QCheck.Gen.(
      frequency
        [ ( 3,
            oneofl
              [ 0.0; -0.0; Float.nan; -.Float.nan; 1.0; -1.0; 2.5;
                Float.infinity; Float.neg_infinity ] );
          (2, float_range (-10.0) 10.0) ])
  in
  QCheck.Test.make ~count:500 ~name:"exact_quantile = sort-and-index reference"
    QCheck.(
      make ~print:Print.(list float)
        Gen.(
          list_size
            (oneof [ return 0; return 1; int_range 2 8; int_range 9 300 ])
            value))
    (fun xs ->
      List.for_all
        (fun q ->
          let got = Everest_observe.Slo.exact_quantile xs q in
          if xs = [] then Float.equal got 0.0
          else
            Float.equal got (exact_quantile xs q)
            && List.exists
                 (fun x ->
                   Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float got))
                 xs)
        [ 0.0; 0.01; 0.5; 0.99; 1.0 ])

let prop_quantile_monotone_and_tight =
  (* values >= bucket_min: inside the log-scale range the estimate must sit
     within one bucket ratio (~26%) of the exact empirical quantile, and be
     monotone in q *)
  QCheck.Test.make ~count:50
    ~name:"histogram quantile monotone in q, within one bucket of exact"
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1e-6 1e3))
    (fun values ->
      QCheck.assume (values <> []);
      let r = Metrics.create_registry () in
      let h = Metrics.histogram ~registry:r "q" in
      List.iter (Metrics.observe h) values;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let ests = List.map (Metrics.quantile h) qs in
      let monotone =
        List.for_all2
          (fun a b -> a <= b +. 1e-12)
          (List.filteri (fun i _ -> i < List.length ests - 1) ests)
          (List.tl ests)
      in
      let tight =
        List.for_all
          (fun q ->
            let est = Metrics.quantile h q in
            let exact = exact_quantile values q in
            est <= exact *. Metrics.bucket_ratio +. 1e-12
            && est >= exact /. Metrics.bucket_ratio -. 1e-12)
          qs
      in
      monotone && tight)

let () =
  Alcotest.run "everest_telemetry"
    [
      ( "trace",
        [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "explicit parent" `Quick
            test_explicit_parent_across_callbacks;
          Alcotest.test_case "bounded sink" `Quick test_bounded_sink;
          Alcotest.test_case "pooled sink views" `Quick test_pooled_sink_views;
          Alcotest.test_case "noop tracer" `Quick
            test_noop_tracer_records_nothing ] );
      ( "histogram",
        [ Alcotest.test_case "uniform quantiles" `Quick test_histogram_uniform;
          Alcotest.test_case "constant" `Quick test_histogram_constant;
          Alcotest.test_case "bimodal" `Quick test_histogram_bimodal ] );
      ( "registry",
        [ Alcotest.test_case "labels" `Quick test_registry_labels;
          Alcotest.test_case "render formats" `Quick test_render_formats ] );
      ( "chrome-trace",
        [ Alcotest.test_case "well-formed JSON" `Quick
            test_chrome_trace_wellformed;
          Alcotest.test_case "exact timestamps" `Quick
            test_chrome_trace_exact_times ] );
      ( "executor",
        [ Alcotest.test_case "trace agrees with stats" `Quick
            test_executor_trace_agrees_with_stats;
          Alcotest.test_case "untraced by default" `Quick
            test_executor_default_is_untraced ] );
      ( "desim",
        [ Alcotest.test_case "wait stats" `Quick test_resource_wait_stats;
          Alcotest.test_case "publish is idempotent" `Quick
            test_resource_publish_idempotent ] );
      ( "orchestrator",
        [ Alcotest.test_case "closed loop traced" `Quick
            test_orchestrator_closed_loop_traced ] );
      ( "probe",
        [ Alcotest.test_case "scoped tracer" `Quick test_probe_scoped_tracer;
          Alcotest.test_case "time_block" `Quick
            test_probe_time_block_observes;
          Alcotest.test_case "manual clock flows through" `Quick
            test_probe_under_manual_clock ] );
      ( "chrome-args",
        [ Alcotest.test_case "args dedupe" `Quick
            test_chrome_trace_dedupes_args ] );
      ( "clock",
        [ Alcotest.test_case "monotonicity" `Quick test_clock_monotonic ] );
      ( "prometheus",
        [ Alcotest.test_case "golden exposition" `Quick
            test_prometheus_golden;
          Alcotest.test_case "label value escaping" `Quick
            test_prometheus_label_escaping ] );
      ( "quantile-props",
        [ QCheck_alcotest.to_alcotest prop_quantile_monotone_and_tight;
          QCheck_alcotest.to_alcotest prop_exact_quantile_selects ] );
    ]
