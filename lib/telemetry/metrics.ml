(* Process-wide metrics: named counters, gauges and histograms, labeled by
   (key,value) pairs.

   Histograms use fixed log-scale buckets (factor 10^(1/10) per bucket from
   1 ns up) so one layout covers everything from span durations in simulated
   seconds to byte counts; quantiles are estimated by geometric interpolation
   inside the bucket that crosses the requested rank — the error is bounded
   by the bucket ratio (~26%), which is plenty for p50/p90/p99 steering.

   A metric's identity is (name, sorted labels): asking for the same name
   with the same labels returns the same underlying cell, so instrumentation
   sites never need to coordinate. *)

(* ---- histogram ------------------------------------------------------------------ *)

let bucket_ratio = 10.0 ** 0.1
let bucket_min = 1e-9
let n_buckets = 181  (* covers 1e-9 .. 10^9.1, plus under/overflow *)

(* Computed eagerly: a [lazy] here would be forced from whichever domain
   observes first, and Lazy.force is not safe under concurrent forcing. *)
let bucket_upper =
  Array.init n_buckets (fun i ->
      bucket_min *. (bucket_ratio ** float_of_int (i + 1)))

(* index of the bucket whose (lower, upper] range holds [x] *)
let bucket_index x =
  if x <= bucket_min then 0
  else
    let i =
      int_of_float (Float.ceil (10.0 *. (Float.log10 x +. 9.0))) - 1
    in
    (* float_of/log rounding can land one off; nudge into the right bucket *)
    let upper = bucket_upper in
    let i = max 0 (min (n_buckets - 1) i) in
    if x > upper.(i) then min (n_buckets - 1) (i + 1)
    else if i > 0 && x <= upper.(i - 1) then i - 1
    else i

type histogram = {
  counts : int array;  (* per-bucket observation counts *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let make_histogram () =
  { counts = Array.make n_buckets 0; h_count = 0; h_sum = 0.0;
    h_min = infinity; h_max = neg_infinity }

let observe h x =
  let x = Float.max 0.0 x in
  let i = bucket_index x in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x;
  h.h_min <- Float.min h.h_min x;
  h.h_max <- Float.max h.h_max x

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let hist_reset h =
  Array.fill h.counts 0 n_buckets 0;
  h.h_count <- 0;
  h.h_sum <- 0.0;
  h.h_min <- infinity;
  h.h_max <- neg_infinity

(* Bucket-wise sum, so merging is associative and commutative and the
   merge of two histograms answers like one that saw both sample sets. *)
let hist_merge_into ~into h =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum +. h.h_sum;
  into.h_min <- Float.min into.h_min h.h_min;
  into.h_max <- Float.max into.h_max h.h_max

(* Estimated value at quantile [q] in [0,1]. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int h.h_count in
    let upper = bucket_upper in
    let rec scan i cum =
      if i >= n_buckets then h.h_max
      else
        let cum' = cum + h.counts.(i) in
        if float_of_int cum' >= rank && h.counts.(i) > 0 then begin
          let lower = if i = 0 then 0.0 else upper.(i - 1) in
          let frac =
            (rank -. float_of_int cum) /. float_of_int h.counts.(i)
          in
          (* geometric interpolation inside the log-scale bucket *)
          let lo = Float.max lower (bucket_min /. bucket_ratio) in
          let v = lo *. ((upper.(i) /. lo) ** frac) in
          Float.min (Float.min v h.h_max) upper.(i)
        end
        else scan (i + 1) cum'
    in
    scan 0 0
  end

(* ---- registry ------------------------------------------------------------------- *)

type value =
  | Counter of float ref
  | Gauge of float ref
  | Histogram of histogram

type metric = {
  mname : string;
  labels : (string * string) list;  (* sorted by key *)
  help : string;
  value : value;
}

type registry = { tbl : (string * (string * string) list, metric) Hashtbl.t }

(* One lock for every registry: registration can race when pool worker
   domains look metrics up concurrently, and an unsynchronized Hashtbl is
   unsafe under parallel writes.  Individual counter/gauge/histogram
   updates stay lock-free — they are plain field writes, which the OCaml
   memory model keeps memory-safe; concurrent writers to the *same* cell
   may lose updates, so hot multi-domain paths publish from a single
   coordinating domain instead (see Everest_parallel.Cache.publish). *)
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let create_registry () = { tbl = Hashtbl.create 64 }

(* The process-wide default registry: [Probe.time_block] and every
   subsystem write here unless given a registry of their own. *)
let default = create_registry ()

let reset r = locked (fun () -> Hashtbl.reset r.tbl)

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_' || c = ':')
       n

let normalize_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create r name labels help mk same_kind =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "metrics: invalid metric name %S" name);
  let labels = normalize_labels labels in
  locked (fun () ->
      match Hashtbl.find_opt r.tbl (name, labels) with
      | Some m ->
          if not (same_kind m.value) then
            invalid_arg
              (Printf.sprintf "metrics: %s already registered as a %s" name
                 (kind_name m.value));
          m.value
      | None ->
          let m = { mname = name; labels; help; value = mk () } in
          Hashtbl.replace r.tbl (name, labels) m;
          m.value)

type counter = float ref
type gauge = float ref

let counter ?(registry = default) ?(labels = []) ?(help = "") name : counter =
  match
    get_or_create registry name labels help
      (fun () -> Counter (ref 0.0))
      (function Counter _ -> true | _ -> false)
  with
  | Counter c -> c
  | _ -> assert false

let inc ?(by = 1.0) (c : counter) =
  if by < 0.0 then invalid_arg "metrics: counters only go up";
  c := !c +. by

let gauge ?(registry = default) ?(labels = []) ?(help = "") name : gauge =
  match
    get_or_create registry name labels help
      (fun () -> Gauge (ref 0.0))
      (function Gauge _ -> true | _ -> false)
  with
  | Gauge g -> g
  | _ -> assert false

let set (g : gauge) v = g := v

let histogram ?(registry = default) ?(labels = []) ?(help = "") name =
  match
    get_or_create registry name labels help
      (fun () -> Histogram (make_histogram ()))
      (function Histogram _ -> true | _ -> false)
  with
  | Histogram h -> h
  | _ -> assert false

let metrics r =
  locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) r.tbl [])
  |> List.sort (fun a b ->
         match compare a.mname b.mname with
         | 0 -> compare a.labels b.labels
         | c -> c)

let find ?(registry = default) ?(labels = []) name =
  locked (fun () ->
      Hashtbl.find_opt registry.tbl (name, normalize_labels labels))

(* ---- rendering ------------------------------------------------------------------- *)

let pp_labels ppf = function
  | [] -> ()
  | labels ->
      Fmt.pf ppf "{%a}"
        Fmt.(
          list ~sep:(any ",") (fun ppf (k, v) -> pf ppf "%s=%S" k v))
        labels

(* Human-oriented dump: one line per metric, histograms with quantiles. *)
let render_text r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun m ->
      let lbl = Fmt.str "%a" pp_labels m.labels in
      match m.value with
      | Counter c -> Buffer.add_string buf (Fmt.str "%s%s %g\n" m.mname lbl !c)
      | Gauge g -> Buffer.add_string buf (Fmt.str "%s%s %g\n" m.mname lbl !g)
      | Histogram h ->
          Buffer.add_string buf
            (Fmt.str "%s%s count=%d sum=%g mean=%g p50=%.3g p90=%.3g p99=%.3g\n"
               m.mname lbl h.h_count h.h_sum (hist_mean h) (quantile h 0.5)
               (quantile h 0.9) (quantile h 0.99)))
    (metrics r);
  Buffer.contents buf

(* Exposition-format label-value escaping: exactly backslash, double
   quote and newline, nothing else.  OCaml's %S additionally escapes
   tabs and emits non-ASCII bytes as decimal escapes, which corrupts
   UTF-8 label values for conforming scrapers — so the Prometheus path
   gets its own escaper (the human-oriented [render_text] keeps %S). *)
let escape_label_value v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let pp_labels_prom ppf = function
  | [] -> ()
  | labels ->
      Fmt.pf ppf "{%a}"
        Fmt.(
          list ~sep:(any ",") (fun ppf (k, v) ->
              pf ppf "%s=\"%s\"" k (escape_label_value v)))
        labels

(* Prometheus exposition format. Histogram buckets are emitted cumulatively
   and only where occupied (plus +Inf), which the format permits. *)
let render_prometheus r =
  let buf = Buffer.create 4096 in
  let seen_header = Hashtbl.create 16 in
  let header name kind help =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  let line name labels v =
    Buffer.add_string buf
      (Fmt.str "%s%a %g\n" name pp_labels_prom labels v)
  in
  List.iter
    (fun m ->
      match m.value with
      | Counter c ->
          header m.mname "counter" m.help;
          line m.mname m.labels !c
      | Gauge g ->
          header m.mname "gauge" m.help;
          line m.mname m.labels !g
      | Histogram h ->
          header m.mname "histogram" m.help;
          let upper = bucket_upper in
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              if c > 0 then begin
                cum := !cum + c;
                line (m.mname ^ "_bucket")
                  (m.labels @ [ ("le", Printf.sprintf "%g" upper.(i)) ])
                  (float_of_int !cum)
              end)
            h.counts;
          line (m.mname ^ "_bucket")
            (m.labels @ [ ("le", "+Inf") ])
            (float_of_int h.h_count);
          line (m.mname ^ "_sum") m.labels h.h_sum;
          line (m.mname ^ "_count") m.labels (float_of_int h.h_count))
    (metrics r);
  Buffer.contents buf
