(* API remoting: guests reach accelerators through a paravirtual transport
   instead of direct device assignment ("API remoting techniques will
   improve data exchanges", paper §IV).

   Each remote call pays a fixed guest-host crossing cost; batching several
   calls amortizes it.  The model exposes the trade-off the runtime
   optimizes when it groups kernel invocations. *)

type transport = {
  per_call_s : float;  (* vmexit + marshalling *)
  per_kb_s : float;  (* shared-memory copy cost *)
  batch_limit : int;
}

let virtio_default = { per_call_s = 12e-6; per_kb_s = 0.08e-6; batch_limit = 64 }

let passthrough = { per_call_s = 1.5e-6; per_kb_s = 0.0; batch_limit = 1 }

(* Cost of issuing [calls] invocations carrying [bytes_per_call] each,
   batching up to [t.batch_limit] per crossing. *)
let cost t ~calls ~bytes_per_call =
  let crossings = (calls + t.batch_limit - 1) / t.batch_limit in
  (float_of_int crossings *. t.per_call_s)
  +. (float_of_int calls *. float_of_int bytes_per_call /. 1024.0 *. t.per_kb_s)

let amortization t ~calls ~bytes_per_call =
  let unbatched =
    float_of_int calls *. (t.per_call_s +. (float_of_int bytes_per_call /. 1024.0 *. t.per_kb_s))
  in
  let batched = cost t ~calls ~bytes_per_call in
  if batched = 0.0 then 1.0 else unbatched /. batched

exception Call_failed of { attempts : int }

(* Issue a remoted accelerator invocation inside the simulation.

   [fail] is a deterministic fault hook: called with the 1-based attempt
   number when the crossing completes, [true] means the transport dropped
   the call.  Failed attempts are retried up to [retries] times with
   exponential backoff on the simulated clock; when the budget runs out the
   continuation is abandoned and [on_give_up] fires (default: raise
   [Call_failed] from inside the simulation). *)
let invoke ?(fail = fun ~attempt:_ -> false) ?(retries = 0) ?on_give_up sim t
    ~calls ~bytes_per_call k =
  let c = cost t ~calls ~bytes_per_call in
  let give_up =
    match on_give_up with
    | Some f -> f
    | None -> fun ~attempts -> raise (Call_failed { attempts })
  in
  let rec go ~attempt ~prev_delay =
    Everest_platform.Desim.schedule sim c (fun () ->
        if not (fail ~attempt) then k ()
        else if attempt > retries then give_up ~attempts:attempt
        else
          let delay =
            (* keyed off the attempt number so repeat invocations draw the
               same jitter: remoted retries stay reproducible *)
            let rng = Everest_parallel.Rng.create (attempt * 7919) in
            Everest_resilience.Policy.(next_delay default_backoff) ~rng
              ~prev:prev_delay
          in
          Everest_platform.Desim.schedule sim delay (fun () ->
              go ~attempt:(attempt + 1) ~prev_delay:delay))
  in
  go ~attempt:1 ~prev_delay:0.0
