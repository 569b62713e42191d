(* Routing policies over shard ids [0, n).  The consistent-hash ring is
   materialized once at creation: [vnodes] points per shard, sorted by the
   stable hash of "shard<i>@<v>"; lookup walks the ring clockwise from the
   tenant's hash to the first routable shard. *)

type policy =
  | Round_robin
  | Least_outstanding
  | Tenant_affinity of { vnodes : int }

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_outstanding -> "least-outstanding"
  | Tenant_affinity _ -> "tenant-affinity"

let policy_of_string = function
  | "rr" | "round-robin" -> Some Round_robin
  | "lo" | "least-outstanding" -> Some Least_outstanding
  | "affinity" | "tenant-affinity" -> Some (Tenant_affinity { vnodes = 64 })
  | _ -> None

type t = {
  b_policy : policy;
  b_n : int;
  mutable b_cursor : int;  (* round-robin position *)
  b_ring : (int * int) array;  (* (point, shard), sorted by point *)
}

let create policy ~n_shards =
  if n_shards <= 0 then invalid_arg "Balancer.create: n_shards <= 0";
  let ring =
    match policy with
    | Tenant_affinity { vnodes } ->
        if vnodes <= 0 then invalid_arg "Balancer.create: vnodes <= 0";
        let pts =
          Array.init (n_shards * vnodes) (fun i ->
              let shard = i / vnodes and v = i mod vnodes in
              ( Workload.stable_hash
                  (Printf.sprintf "shard%d@%d" shard v),
                shard ))
        in
        Array.sort compare pts;
        pts
    | _ -> [||]
  in
  { b_policy = policy; b_n = n_shards; b_cursor = 0; b_ring = ring }

(* First ring index whose point is >= h (binary search, wrapping to 0). *)
let ring_start ring h =
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst ring.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let ring_route t ~tenant ~routable =
  let n = Array.length t.b_ring in
  if n = 0 then None
  else begin
    let start = ring_start t.b_ring (Workload.stable_hash tenant) in
    let rec walk i seen =
      if seen >= n then None
      else
        let shard = snd t.b_ring.((start + i) mod n) in
        if routable shard then Some shard else walk (i + 1) (seen + 1)
    in
    walk 0 0
  end

let route t ~tenant ~routable ~outstanding =
  match t.b_policy with
  | Round_robin ->
      let rec scan i =
        if i >= t.b_n then None
        else
          let shard = (t.b_cursor + i) mod t.b_n in
          if routable shard then begin
            t.b_cursor <- (shard + 1) mod t.b_n;
            Some shard
          end
          else scan (i + 1)
      in
      scan 0
  | Least_outstanding ->
      let best = ref None in
      for s = 0 to t.b_n - 1 do
        if routable s then
          match !best with
          | Some b when outstanding s >= outstanding b -> ()
          | _ -> best := Some s
      done;
      !best
  | Tenant_affinity _ -> ring_route t ~tenant ~routable

(* Checkpoint/restore: the round-robin cursor is the only mutable state;
   the ring is rebuilt deterministically from the policy. *)
let cursor t = t.b_cursor
let set_cursor t c = t.b_cursor <- if t.b_n > 0 then ((c mod t.b_n) + t.b_n) mod t.b_n else 0

