(* Domain-safe string-keyed memo cache with hit/miss accounting.

   The compiler's estimation cache is built on this: a single mutex guards
   the table and the counters, the cached computation itself runs outside
   the lock.  Two domains racing on the same missing key may both compute
   it — the first insert wins and the duplicate work is bounded by one
   task — which keeps the lock out of the (potentially expensive) compute
   path. *)

type 'a t = {
  name : string;
  m : Mutex.t;
  tbl : (string, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type stats = { hits : int; misses : int; entries : int }

let create ?(name = "cache") () =
  { name; m = Mutex.create (); tbl = Hashtbl.create 64; hits = 0; misses = 0 }

let add t key v =
  Mutex.lock t.m;
  if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key v;
  Mutex.unlock t.m

let find_or_compute t ~key f =
  Mutex.lock t.m;
  match Hashtbl.find_opt t.tbl key with
  | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.m;
      v
  | None ->
      t.misses <- t.misses + 1;
      Mutex.unlock t.m;
      let v = f () in
      add t key v;
      v

let stats t =
  Mutex.lock t.m;
  let s = { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.tbl } in
  Mutex.unlock t.m;
  s

(* Publish the counters as gauges labelled by cache name.  Call from a
   single domain (the metrics registry is not written concurrently). *)
let publish t =
  let s = stats t in
  let module M = Everest_telemetry.Metrics in
  let g name v =
    M.set (M.gauge ~labels:[ ("cache", t.name) ] name)
      (float_of_int v)
  in
  g "cache_hits" s.hits;
  g "cache_misses" s.misses;
  g "cache_entries" s.entries
