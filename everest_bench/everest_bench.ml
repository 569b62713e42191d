(* everest_bench: end-to-end and per-layer benchmark of the serving fabric
   and the workflow engine.  Run it from the repository root:

     bash everest_bench/run.sh                           # every workload
     bash everest_bench/run.sh --workload serve-peak --seed 11 --seconds 25
     bash everest_bench/run.sh --trace                   # + per-layer ledger
     bash everest_bench/run.sh --quick                   # smoke sizes, one rep

   Each repetition runs in a fresh child process (this executable with
   --child), one child at a time, with EVEREST_DOMAINS=1: the heap
   high-water mark is per process, and users run one simulation per
   everest_cli process.  With several workloads, repetitions go
   round-robin across them so a slow phase of the host hits every
   workload.  Every repetition's output digest is checked against
   golden/ (seed 11) or, for other seeds, against the other repetitions.
   The last line of stdout is one JSON object; README.md documents it. *)

module Json = Everest_observe.Json

let bench_dir = "everest_bench"
let results_dir = Filename.concat bench_dir "results"
let golden_dir = Filename.concat bench_dir "golden"
let default_seed = 11

type opts = {
  workloads : string list;
  seed : int;
  seconds : float option;
  trace : bool;
  quick : bool;
  child : string option;
}

let usage =
  "usage: everest_bench [--workload serve-peak|serve-steady|serve-durable|dag-heft]\n\
  \                     [--seed N] [--seconds S] [--trace [0|1]] [--quick]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("everest_bench: " ^ msg);
      exit 2)
    fmt

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
        if not (List.mem w Workloads.names) then die "unknown workload %S\n%s" w usage;
        go { o with workloads = o.workloads @ [ w ] } rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some seed -> go { o with seed } rest
        | None -> die "--seed expects an integer, got %S" n)
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x > 0.0 -> go { o with seconds = Some x } rest
        | _ -> die "--seconds expects a positive number, got %S" s)
    | "--trace" :: (("0" | "1") as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--child" :: w :: rest -> go { o with child = Some w } rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  let o =
    go
      { workloads = []; seed = default_seed; seconds = None; trace = false; quick = false;
        child = None }
      args
  in
  if o.workloads = [] then { o with workloads = Workloads.names } else o

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let num x = Json.Num x
let metric_json value unit = Json.Obj [ ("value", num value); ("unit", Json.Str unit) ]
let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* ---- child: one repetition ------------------------------------------------------- *)

let setups_per_rep = 3

(* Set up [setups_per_rep] times and keep the last; a full major GC after
   each frees the discarded ones, so they do not raise the heap peak. *)
let timed_setups input =
  let rec go k times =
    let t0 = Ledger.now () in
    let p = Workloads.setup input in
    let times = (Ledger.now () -. t0) :: times in
    Gc.full_major ();
    if k = 1 then (times, p) else go (k - 1) times
  in
  go setups_per_rep []

(* The traced repetition: replay the op into every layer, print the
   ledger and the fidelity checks, write the Chrome trace.  Returns the
   per-layer metrics and the failed checks. *)
let trace name led input (op : Workloads.op) ~tmp_dir =
  Gc.full_major ();
  let replay =
    match (input, op.ran) with
    | Workloads.Serve s, Workloads.Served sv -> Replay.serve led s sv ~tmp_dir
    | Workloads.Dag { seed; tasks }, Workloads.Dag_ran { executed; makespan } ->
        Replay.dag led ~seed ~tasks ~op_s:op.op_s ~executed ~makespan
    | _ -> invalid_arg "trace: op does not match its input"
  in
  let empty_span_ns = Ledger.empty_span_ns () in
  let base_s = replay.base_s in
  let table, coverage = Ledger.table led ~base_s ~covered:replay.covered ~empty_span_ns in
  Printf.printf "%s per-layer ledger (one traced op of %.3f s):\n%s" name op.op_s table;
  if coverage < 0.5 then
    print_endline
      "  warning: coverage below 50%; most of the time is in `fabric`, which no replay \
       reaches";
  List.iter
    (fun (c : Replay.check) ->
      Printf.printf "  fidelity %s: replayed %d, real %d%s\n" c.what c.replayed c.real
        (if c.replayed = c.real then "" else "  MISMATCH"))
    replay.checks;
  let path = Filename.concat results_dir (name ^ ".trace.json") in
  Ledger.write_chrome_trace led path;
  Printf.printf "  chrome trace: %s\n" path;
  ( [ ( "per_layer",
        Json.Obj
          (List.map (fun (k, v, unit) -> (k, metric_json v unit)) (Ledger.metrics led ~base_s)) );
      ("coverage", num coverage);
      ("empty_span_ns", num empty_span_ns) ],
    List.filter_map
      (fun (c : Replay.check) ->
        if c.replayed = c.real then None
        else Some (Printf.sprintf "fidelity: %s (replayed %d, real %d)" c.what c.replayed c.real))
      replay.checks )

let child o name =
  let input = Workloads.input ~quick:o.quick ~seed:o.seed name in
  let setup_times, prepared = timed_setups input in
  let tmp_dir = Filename.concat results_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> Workloads.rm_rf tmp_dir)
    (fun () ->
      let led = Ledger.create () in
      let op = Workloads.op led ~store_root:tmp_dir input prepared in
      let heap = mib (Gc.quick_stat ()).Gc.top_heap_words in
      let traced, mismatches = if o.trace then trace name led input op ~tmp_dir else ([], []) in
      let problems = op.problems @ mismatches in
      Json.Obj
        ([ ("ok", Json.Bool (problems = []));
           ("problems", Json.Arr (List.map (fun p -> Json.Str p) problems));
           ("digest", Json.Str op.digest);
           ("items", num (float_of_int op.items));
           ("op_s", num op.op_s);
           ("op_words", num op.op_words);
           ("setup_s", num (median setup_times));
           ("heap_mib", num heap) ]
        @ traced))

(* ---- parent: repetitions, checks, output ---------------------------------------- *)

type rep = {
  json : Json.t;  (* the child's line; Null when it printed none *)
  wall_s : float;
  failure : string option;
}

let field k j = Option.value ~default:Json.Null (Json.member k j)
let fnum k j = match field k j with Json.Num x -> x | _ -> nan
let digest r = match field "digest" r.json with Json.Str d -> d | _ -> "-"

(* Run one child, forward its human output, parse its last line. *)
let spawn o name ~trace =
  let args =
    [ Sys.executable_name; "--child"; name; "--seed"; string_of_int o.seed ]
    @ (if o.quick then [ "--quick" ] else [])
    @ if trace then [ "--trace" ] else []
  in
  let t0 = Ledger.now () in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  let wall_s = Ledger.now () -. t0 in
  let last, before = match lines with l :: rest -> (l, List.rev rest) | [] -> ("", []) in
  List.iter print_endline before;
  let json = try Json.parse last with Json.Parse_error _ -> Json.Null in
  let failure =
    match (status, json) with
    | Unix.WEXITED 0, Json.Obj _ -> (
        match field "ok" json with
        | Json.Bool true -> None
        | _ ->
            Some
              (String.concat "; "
                 (List.map
                    (function Json.Str s -> s | _ -> "?")
                    (match field "problems" json with Json.Arr ps -> ps | _ -> []))))
    | Unix.WEXITED n, _ -> Some (Printf.sprintf "child exited with %d" n)
    | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ -> Some (Printf.sprintf "child killed by signal %d" n)
  in
  { json; wall_s; failure }

let default_reps o = if o.quick then 1 else 5
let min_reps = 3

(* Repetitions round-robin across the workloads until each has its
   default count, or, with --seconds, until its next repetition would
   overrun its budget (but at least [min_reps]). *)
let measure o =
  let reps = Hashtbl.create 4 in
  List.iter (fun w -> Hashtbl.replace reps w []) o.workloads;
  let wants w =
    let done_ = Hashtbl.find reps w in
    let n = List.length done_ in
    match o.seconds with
    | Some budget when not o.quick ->
        let spent = List.fold_left (fun acc r -> acc +. r.wall_s) 0.0 done_ in
        n < min_reps || spent +. (spent /. float_of_int n) <= budget
    | _ -> n < default_reps o
  in
  let rec round () =
    match List.filter wants o.workloads with
    | [] -> ()
    | todo ->
        List.iter
          (fun w -> Hashtbl.replace reps w (Hashtbl.find reps w @ [ spawn o w ~trace:false ]))
          todo;
        round ()
  in
  round ();
  Hashtbl.find reps

let golden o w =
  let path =
    Filename.concat golden_dir
      (Printf.sprintf "%s.%s.md5" w (if o.quick then "quick" else "full"))
  in
  if o.seed <> default_seed || not (Sys.file_exists path) then None
  else
    let ic = open_in path in
    Some (String.trim (Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)))

(* A repetition fails when it raised, failed a self-check, or its digest
   misses the golden (or, with no golden, the first repetition's). *)
let failures o w reps =
  let expected =
    match (golden o w, reps) with Some g, _ -> g | None, r :: _ -> digest r | None, [] -> "-"
  in
  List.filter_map
    (fun r ->
      match r.failure with
      | Some why -> Some why
      | None when String.equal (digest r) expected -> None
      | None -> Some (Printf.sprintf "%s diverged: digest %s, expected %s" w (digest r) expected))
    reps

(* An end-to-end metric: its per-repetition values and the estimator that
   reports them. *)
type estimator = Fastest | Median

type metric = { name : string; unit : string; estimator : estimator; values : float list }

let estimator_name = function Fastest -> "fastest" | Median -> "median"

let estimate m =
  match m.estimator with
  | Fastest -> List.fold_left Float.max neg_infinity m.values
  | Median -> median m.values

(* The simulation is deterministic, so every repetition does identical work
   and host noise can only slow it: throughput is the fastest repetition.
   Set-up time is the median (each repetition's own value is the median of
   its [setups_per_rep] set-ups); the two memory numbers repeat exactly. *)
let end_to_end reps =
  let ok = List.filter (fun r -> r.failure = None) reps in
  let each f = List.map (fun r -> f r.json) ok in
  [ { name = "work_per_s"; unit = "items/s"; estimator = Fastest;
      values = each (fun j -> fnum "items" j /. fnum "op_s" j) };
    { name = "setup_s"; unit = "s"; estimator = Median; values = each (fnum "setup_s") };
    { name = "alloc_w_per_op"; unit = "words/op"; estimator = Median;
      values = each (fun j -> fnum "op_words" j /. fnum "items" j) };
    { name = "heap_peak_mib"; unit = "MiB"; estimator = Median; values = each (fnum "heap_mib") } ]

type outcome = {
  w : string;
  reps : rep list;  (* timed repetitions, then the traced one *)
  failed : string list;
  metrics : metric list;
  traced : rep option;
}

let print_outcome o r =
  let status =
    match (r.failed, golden o r.w) with
    | [], Some _ -> "matches golden"
    | [], None -> "repetitions agree"
    | f :: _, _ -> "FAILED: " ^ f
  in
  let first = match r.reps with x :: _ -> digest x | [] -> "-" in
  Printf.printf "%s (seed %d, digest %s, %s)\n" r.w o.seed first status;
  Printf.printf "  %-15s %-9s %-8s %13s %13s %13s %13s %3s\n" "metric" "unit" "estimator"
    "value" "median" "min" "max" "n";
  List.iter
    (fun m ->
      Printf.printf "  %-15s %-9s %-8s %13.6g %13.6g %13.6g %13.6g %3d\n" m.name m.unit
        (estimator_name m.estimator) (estimate m) (median m.values)
        (List.fold_left Float.min infinity m.values)
        (List.fold_left Float.max neg_infinity m.values)
        (List.length m.values))
    r.metrics

let summary_json o outcomes =
  let workload r =
    let stats m =
      Json.Obj
        [ ("unit", Json.Str m.unit); ("estimator", Json.Str (estimator_name m.estimator));
          ("value", num (estimate m)); ("values", Json.Arr (List.map num m.values)) ]
    in
    ( r.w,
      Json.Obj
        ([ ("digest", Json.Str (match r.reps with x :: _ -> digest x | [] -> "-"));
           ("reps", num (float_of_int (List.length r.reps)));
           ("failed", Json.Arr (List.map (fun f -> Json.Str f) r.failed));
           ("end_to_end", Json.Obj (List.map (fun m -> (m.name, stats m)) r.metrics)) ]
        @
        match r.traced with
        | Some t ->
            List.map (fun k -> (k, field k t.json)) [ "per_layer"; "coverage"; "empty_span_ns" ]
        | None -> []) )
  in
  Json.Obj
    [ ("seed", num (float_of_int o.seed));
      ("quick", Json.Bool o.quick);
      ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("workloads", Json.Obj (List.map workload outcomes)) ]

let parent o =
  if not (Sys.file_exists golden_dir) then
    die "run from the repository root (no %s here)" golden_dir;
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  Unix.putenv "EVEREST_DOMAINS" "1";
  let timed = measure o in
  let outcomes =
    List.map
      (fun w ->
        let traced = if o.trace then Some (spawn o w ~trace:true) else None in
        let reps = timed w @ Option.to_list traced in
        { w; reps; failed = failures o w reps; metrics = end_to_end (timed w); traced })
      o.workloads
  in
  List.iter (print_outcome o) outcomes;
  let oc = open_out (Filename.concat results_dir "latest.json") in
  output_string oc (Json.to_string ~pretty:true (summary_json o outcomes));
  output_char oc '\n';
  close_out oc;
  (* --trace reports the per-layer metrics, otherwise the end-to-end ones;
     with several workloads each name is prefixed with its workload *)
  let key w name = if List.length o.workloads = 1 then name else w ^ "." ^ name in
  let reported r =
    match r.traced with
    | Some t -> (
        match field "per_layer" t.json with
        | Json.Obj kvs -> List.map (fun (k, v) -> (key r.w k, v)) kvs
        | _ -> [])
    | None -> List.map (fun m -> (key r.w m.name, metric_json (estimate m) m.unit)) r.metrics
  in
  let count f = List.fold_left (fun acc r -> acc + List.length (f r)) 0 outcomes in
  let failed = count (fun r -> r.failed) in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", num (float_of_int (count (fun r -> r.reps))));
            ("failed", num (float_of_int failed));
            ("metrics", Json.Obj (List.concat_map reported outcomes)) ]));
  if failed > 0 then exit 1

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match o.child with
  | None -> parent o
  | Some name ->
      if not (List.mem name Workloads.names) then die "unknown workload %S" name;
      let out =
        try child o name
        with e ->
          Json.Obj
            [ ("ok", Json.Bool false);
              ("problems", Json.Arr [ Json.Str (Printexc.to_string e) ]) ]
      in
      print_endline (Json.to_string out)
