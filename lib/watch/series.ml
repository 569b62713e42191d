(* Fixed-capacity time series.

   One series holds the samples of one (name × labels) signal: a ring of
   the newest [capacity] raw (t, v) samples in two unboxed float arrays,
   at a fixed memory bound however long the run gets.  Time comes from
   the caller and may not run backwards, so the ring is always sorted by
   time; the whole structure is deterministic on a simulated clock. *)

type t = {
  s_name : string;
  s_labels : (string * string) list;  (* sorted by key *)
  s_t : float array;  (* sample i lives at i mod capacity *)
  s_v : float array;
  mutable s_samples : int;  (* raw observations ever *)
}

let norm = Everest_telemetry.Metrics.normalize_labels

let create ?(capacity = 256) ~name ~labels () =
  if capacity <= 0 then invalid_arg "Series.create: capacity <= 0";
  { s_name = name; s_labels = norm labels; s_t = Array.make capacity 0.0;
    s_v = Array.make capacity 0.0; s_samples = 0 }

let name s = s.s_name
let labels s = s.s_labels
let samples s = s.s_samples
let slot s i = i mod Array.length s.s_t

let latest s =
  if s.s_samples = 0 then None
  else
    let j = slot s (s.s_samples - 1) in
    Some (s.s_t.(j), s.s_v.(j))

let observe s ~t v =
  if s.s_samples > 0 && t < s.s_t.(slot s (s.s_samples - 1)) then
    invalid_arg
      (Printf.sprintf "Series.observe %s: t %.17g precedes the newest sample %.17g"
         s.s_name t s.s_t.(slot s (s.s_samples - 1)));
  let j = slot s s.s_samples in
  s.s_t.(j) <- t;
  s.s_v.(j) <- v;
  s.s_samples <- s.s_samples + 1

let to_list s =
  let first = max 0 (s.s_samples - Array.length s.s_t) in
  List.init (s.s_samples - first) (fun i ->
      let j = slot s (first + i) in
      (s.s_t.(j), s.s_v.(j)))

(* ---- store ----------------------------------------------------------------------- *)

(* A collection of series keyed by (name × labels); the scraper writes
   here, rules and the dashboard read.  Iteration order is always sorted
   by (name, labels), so anything rendered from a store is deterministic
   whatever order the signals first appeared in. *)
module Store = struct
  type series = t

  (* the outer constructor, before [create] below shadows it *)
  let mk_series = create

  type t = {
    tbl : (string * (string * string) list, series) Hashtbl.t;
    capacity : int;
  }

  let create ?(capacity = 256) () = { tbl = Hashtbl.create 64; capacity }

  let series st ~name ~labels =
    let labels = norm labels in
    match Hashtbl.find_opt st.tbl (name, labels) with
    | Some s -> s
    | None ->
        let s = mk_series ~capacity:st.capacity ~name ~labels () in
        Hashtbl.replace st.tbl (name, labels) s;
        s

  let find st ~name ~labels = Hashtbl.find_opt st.tbl (name, norm labels)

  let observe st ~now ~name ~labels v = observe (series st ~name ~labels) ~t:now v

  let to_list st =
    Hashtbl.fold (fun _ s acc -> s :: acc) st.tbl []
    |> List.sort (fun a b ->
           match compare a.s_name b.s_name with
           | 0 -> compare a.s_labels b.s_labels
           | c -> c)

  let size st = Hashtbl.length st.tbl
end
