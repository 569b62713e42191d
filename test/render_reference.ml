(* The served-log line and run summary that [Fabric.render_log] and
   [Fabric.render_summary] replaced, kept as a test oracle: one
   [Printf.sprintf] per request, and a summary that filters the log once
   per count, sorts it by completion time and takes the p99 from a
   [compare] sort of the served latencies.  The fabric writes the same
   bytes field by field; [test_serving]'s [render] group checks that. *)

open Everest_serving
open Fabric
module Slo = Everest_observe.Slo

let outcome_name = function
  | Served -> "served"
  | Rejected reason -> "rejected:" ^ Admission.reason_name reason
  | Failed why -> "failed:" ^ why

let render_log log =
  let buf = Buffer.create (64 * List.length log) in
  List.iter
    (fun x ->
      Buffer.add_string buf
        (Printf.sprintf
           "#%06d t=%s k=%s shard=%d arr=%.9f done=%.9f lat=%.9f batch=%d \
            att=%d var=%s deg=%b %s\n"
           x.sr_id x.sr_tenant x.sr_kernel x.sr_shard x.sr_arrival_s
           x.sr_done_s x.sr_latency_s x.sr_batch x.sr_attempts x.sr_variant
           x.sr_degraded (outcome_name x.sr_outcome)))
    log;
  Buffer.contents buf

(* Nearest rank over a [compare] sort: the quantile [Slo.exact_quantile]
   computed before it selected in place. *)
let exact_quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      arr.(max 0 (min (n - 1) (rank - 1)))

let served_ok r =
  List.length (List.filter (fun x -> x.sr_outcome = Served) r.f_log)

let failed r =
  List.length
    (List.filter
       (fun x -> match x.sr_outcome with Failed _ -> true | _ -> false)
       r.f_log)

let shed r =
  List.length
    (List.filter
       (fun x -> match x.sr_outcome with Rejected _ -> true | _ -> false)
       r.f_log)

let availability r =
  let ok = served_ok r and bad = failed r in
  if ok + bad = 0 then 1.0
  else float_of_int ok /. float_of_int (ok + bad)

let throughput_rps r =
  if r.f_horizon_s <= 0.0 then 0.0
  else float_of_int (served_ok r) /. r.f_horizon_s

let latencies r =
  List.filter_map
    (fun x -> if x.sr_outcome = Served then Some x.sr_latency_s else None)
    (List.sort (fun a b -> compare a.sr_done_s b.sr_done_s) r.f_log)

let latency_quantile r q = exact_quantile (latencies r) q

let batched_requests r =
  List.fold_left (fun acc s -> acc + s.sh_batched_requests) 0 r.f_shards

let render_summary r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "fabric: %d shard(s), balancer=%s, horizon %.3gs, makespan %.3gs\n"
       r.f_config.n_shards
       (Balancer.policy_name r.f_config.balancer)
       r.f_horizon_s r.f_makespan_s);
  Buffer.add_string buf
    (Printf.sprintf
       "requests: %d total = %d served + %d failed + %d shed | availability \
        %.2f%% | %.0f req/s | p99 %.4gs | %d batched | %d reroutes\n"
       (List.length r.f_log) (served_ok r) (failed r) (shed r)
       (100.0 *. availability r)
       (throughput_rps r)
       (latency_quantile r 0.99)
       (batched_requests r) r.f_reroutes);
  Buffer.add_string buf
    (Printf.sprintf "autoscale: %d spawned, %d retired\n" r.f_spawned
       r.f_retired);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  shard%d: served=%d failed=%d batches=%d workers=%d (peak %d)\n"
           s.sh_id s.sh_served s.sh_failed s.sh_batches s.sh_workers
           s.sh_peak_workers))
    r.f_shards;
  List.iter
    (fun tr ->
      let shed_total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 tr.tr_shed
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-12s requests=%d served=%d failed=%d shed=%d alerts=%d\n"
           tr.tr_tenant tr.tr_requests tr.tr_served tr.tr_failed shed_total
           tr.tr_alerts);
      List.iter
        (fun (res : Slo.result) ->
          Buffer.add_string buf (Fmt.str "    %a\n" Slo.pp_result res))
        tr.tr_slos)
    r.f_tenants;
  Buffer.contents buf
