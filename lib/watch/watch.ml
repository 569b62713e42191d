(* The watch facade: one value owning the series store, the windowed
   sketches, the scrape sources and the rules engine, ticked from the
   watched system's own control loop.

   The contract that keeps watched runs byte-identical to unwatched ones:
   a watch only ever *reads* the system (sources are pull functions,
   [observe] is fed values the system computed anyway) and never schedules
   events, draws randomness or feeds decisions back.  Everything it stores
   is keyed on caller-supplied simulated time, so two same-seed runs build
   identical watch state and render identical dashboards.

   Cost accounting: every scrape tick and every sketch observation is
   clocked (host time) into [work_s], so a bench can attribute the watch's
   overhead from a single run the way the recovery layer does — the
   noise multiplier of the host cancels in work/(total-work). *)

type config = {
  wc_interval_s : float;  (* scrape cadence on the watched clock *)
  wc_capacity : int;  (* samples kept per series *)
  wc_sketch_bucket_s : float;  (* windowed-sketch time bucket *)
  wc_sketch_slots : int;
}

let default_config =
  { wc_interval_s = 0.01; wc_capacity = 256; wc_sketch_bucket_s = 0.05;
    wc_sketch_slots = 20 }

type t = {
  w_config : config;
  w_store : Series.Store.t;
  w_sketches : (string * (string * string) list, Sketch.t) Hashtbl.t;
  mutable w_sketch_keys : (string * (string * string) list) list;
      (* insertion-ordered keys for deterministic iteration *)
  w_rules : Rules.t;
  mutable w_sources : Scrape.t list;  (* in registration order *)
  mutable w_last_tick : float;  (* nan = never ticked *)
  mutable w_ticks : int;
  mutable w_samples : int;  (* sketch observations *)
  mutable w_work_s : float;  (* host wall time attributed to watching *)
  mutable w_on_tick : (t -> now:float -> unit) option;
}

let create ?(config = default_config) ?(rules = []) () =
  if config.wc_interval_s <= 0.0 then invalid_arg "Watch.create: interval <= 0";
  { w_config = config;
    w_store = Series.Store.create ~capacity:config.wc_capacity ();
    w_sketches = Hashtbl.create 16;
    w_sketch_keys = [];
    w_rules = Rules.engine rules;
    w_sources = [];
    w_last_tick = Float.nan;
    w_ticks = 0;
    w_samples = 0;
    w_work_s = 0.0;
    w_on_tick = None }

let store w = w.w_store
let ticks w = w.w_ticks
let samples w = w.w_samples
let work_s w = w.w_work_s

(* Replace-by-name: re-attaching a watch (e.g. a second [execute] run
   over the same registry) swaps the source instead of double-sampling. *)
let add_source w src =
  let n = Scrape.name src in
  if List.exists (fun s -> String.equal (Scrape.name s) n) w.w_sources then
    w.w_sources <-
      List.map
        (fun s -> if String.equal (Scrape.name s) n then src else s)
        w.w_sources
  else w.w_sources <- w.w_sources @ [ src ]
let on_tick w f = w.w_on_tick <- Some f

let norm = Everest_telemetry.Metrics.normalize_labels

let sketch w ~name ~labels =
  let key = (name, norm labels) in
  match Hashtbl.find_opt w.w_sketches key with
  | Some wd -> wd
  | None ->
      let wd =
        Sketch.create ~bucket_s:w.w_config.wc_sketch_bucket_s
          ~slots:w.w_config.wc_sketch_slots ()
      in
      Hashtbl.replace w.w_sketches key wd;
      w.w_sketch_keys <- w.w_sketch_keys @ [ key ];
      wd

let find_sketch w ~name ~labels =
  Hashtbl.find_opt w.w_sketches (name, norm labels)

(* Sketch keys in first-observation order (deterministic across same-seed
   runs, unlike hashtable order). *)
let sketch_list w =
  List.map (fun (n, l) -> (n, l, Hashtbl.find w.w_sketches (n, l))) w.w_sketch_keys

(* Feed one sample into the named windowed sketch — the push half of the
   pipeline (the pull half is the scrape).  Cheap enough for per-request
   call sites: one bucket update plus two clock reads. *)
let observe w ~now ?(labels = []) name v =
  let t0 = Unix.gettimeofday () in
  Sketch.observe (sketch w ~name ~labels) ~now v;
  w.w_samples <- w.w_samples + 1;
  w.w_work_s <- w.w_work_s +. (Unix.gettimeofday () -. t0)

let ctx w =
  { Rules.ctx_store = w.w_store;
    ctx_sketch = (fun name labels -> find_sketch w ~name ~labels) }

(* One scrape tick: pull every source into the store, evaluate the rules,
   notify the follower.  Returns the alerts that newly fired. *)
let tick w ~now =
  let t0 = Unix.gettimeofday () in
  w.w_ticks <- w.w_ticks + 1;
  w.w_last_tick <- now;
  List.iter
    (fun src ->
      List.iter
        (fun (name, labels, v) ->
          Series.Store.observe w.w_store ~now ~name ~labels v)
        (Scrape.sample src ~now))
    w.w_sources;
  let fired = Rules.eval w.w_rules (ctx w) ~now in
  w.w_work_s <- w.w_work_s +. (Unix.gettimeofday () -. t0);
  (match w.w_on_tick with Some f -> f w ~now | None -> ());
  fired

(* Tick when the scrape interval has elapsed (or on the first call).
   The watched system calls this from its own control loop; the watch
   never schedules anything itself. *)
let maybe_tick w ~now =
  if
    Float.is_nan w.w_last_tick
    || now -. w.w_last_tick >= w.w_config.wc_interval_s -. 1e-12
  then ignore (tick w ~now)

let alerts_total w = Rules.edges_total w.w_rules
let firing w = List.map (fun s -> s.Rules.as_name) (Rules.firing w.w_rules)
let alert_states w = Rules.alert_states w.w_rules
