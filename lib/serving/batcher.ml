(* Per-key pending queues in insertion order (association list: key counts
   are tiny and deterministic iteration matters for reproducibility). *)

type config = {
  max_batch : int;
  max_delay_s : float;
  marginal_cost : float;
}

let default_config = { max_batch = 8; max_delay_s = 0.005; marginal_cost = 0.25 }

type batch = {
  b_key : string;
  b_requests : Workload.request list;
  b_formed_s : float;
}

let size b = List.length b.b_requests

let service_time config ~single_s ~size =
  single_s *. (1.0 +. (config.marginal_cost *. float_of_int (size - 1)))

type pending = {
  mutable p_requests : Workload.request list;  (* newest first *)
  mutable p_oldest_s : float;  (* arrival of the oldest member *)
}

type t = {
  t_config : config;
  mutable t_keys : (string * pending) list;  (* insertion order *)
  mutable t_pending : int;
}

let create config =
  if config.max_batch <= 0 then invalid_arg "Batcher.create: max_batch <= 0";
  if config.max_delay_s < 0.0 then invalid_arg "Batcher.create: max_delay_s < 0";
  if config.marginal_cost < 0.0 || config.marginal_cost > 1.0 then
    invalid_arg "Batcher.create: marginal_cost outside [0, 1]";
  { t_config = config; t_keys = []; t_pending = 0 }

let pending t = t.t_pending

let take t key p ~now =
  t.t_keys <- List.filter (fun (k, _) -> not (String.equal k key)) t.t_keys;
  t.t_pending <- t.t_pending - List.length p.p_requests;
  { b_key = key; b_requests = List.rev p.p_requests; b_formed_s = now }

let add t ~now (rq : Workload.request) =
  let key = rq.Workload.rq_kernel in
  let p =
    match List.assoc_opt key t.t_keys with
    | Some p -> p
    | None ->
        let p = { p_requests = []; p_oldest_s = now } in
        t.t_keys <- t.t_keys @ [ (key, p) ];
        p
  in
  if p.p_requests = [] then p.p_oldest_s <- now;
  p.p_requests <- rq :: p.p_requests;
  t.t_pending <- t.t_pending + 1;
  if List.length p.p_requests >= t.t_config.max_batch then
    Some (take t key p ~now)
  else None

let flush_due t ~now =
  let due, keep =
    List.partition
      (fun (_, p) -> now -. p.p_oldest_s >= t.t_config.max_delay_s)
      t.t_keys
  in
  ignore keep;
  List.map
    (fun (key, p) -> take t key p ~now)
    due

let flush_oldest t ~now =
  match t.t_keys with
  | [] -> None
  | keys ->
      let key, p =
        List.fold_left
          (fun (bk, bp) (k, p) ->
            if p.p_oldest_s < bp.p_oldest_s then (k, p) else (bk, bp))
          (List.hd keys) (List.tl keys)
      in
      Some (take t key p ~now)

let oldest_age t ~now =
  List.fold_left
    (fun acc (_, p) -> Float.max acc (now -. p.p_oldest_s))
    0.0 t.t_keys

(* Checkpoint/restore: per-key accumulators exactly as stored (requests
   newest first, keys in insertion order) so a restored batcher forms the
   same batches in the same order. *)
let export t =
  List.map
    (fun (key, p) -> (key, p.p_oldest_s, p.p_requests))
    t.t_keys

let import t entries =
  t.t_keys <-
    List.map
      (fun (key, oldest, requests) ->
        (key, { p_requests = requests; p_oldest_s = oldest }))
      entries;
  t.t_pending <-
    List.fold_left (fun acc (_, _, rs) -> acc + List.length rs) 0 entries
