(* The data protection layer of the virtualized runtime (Fig. 2, item 1).

   Wraps the security monitors around named data streams; on anomalies it
   executes the auto-protection policy: quarantining sources, forcing
   encryption on a stream, or requesting a hardened variant from the
   adaptation layer. *)

open Everest_security

type stream_state = {
  range_mon : Monitor.range_monitor;
  size_mon : Monitor.size_monitor;
  timing_mon : Monitor.timing_monitor;
  mutable quarantined : bool;
  mutable force_encryption : bool;
  mutable hardened_variant : string option;
  mutable alerts : Monitor.event list;
}

type t = {
  mutable streams : stream_state list;
  mutable total_alerts : int;
  mutable dropped_batches : int;
}

let create () = { streams = []; total_alerts = 0; dropped_batches = 0 }

let register layer =
  let s =
    { range_mon = Monitor.range (); size_mon = Monitor.size ();
      timing_mon = Monitor.timing (); quarantined = false;
      force_encryption = false; hardened_variant = None; alerts = [] }
  in
  layer.streams <- s :: layer.streams;
  s

(* Training phase: feed known-good traffic. *)
let train (s : stream_state) ~values ~bytes ~latency_s =
  List.iter (Monitor.range_train s.range_mon) values;
  Monitor.size_train s.size_mon bytes;
  Monitor.timing_train s.timing_mon latency_s

let finalize (s : stream_state) =
  Monitor.range_finalize s.range_mon;
  Monitor.size_finalize s.size_mon;
  Monitor.timing_finalize s.timing_mon

let apply_actions layer s actions =
  List.iter
    (fun (a : Monitor.action) ->
      match a with
      | Monitor.Raise_alert -> ()
      | Monitor.Enable_encryption -> s.force_encryption <- true
      | Monitor.Quarantine_source -> s.quarantined <- true
      | Monitor.Switch_variant v -> s.hardened_variant <- Some v
      | Monitor.Throttle _ -> ())
    actions;
  ignore layer

type admit_result = Accepted | Rejected of string

(* Admit one data batch: run every monitor; anomalous batches trigger the
   policy and, if the stream becomes quarantined, rejection. *)
let admit layer (s : stream_state) ~values ~bytes ~latency_s : admit_result =
  if s.quarantined then begin
    layer.dropped_batches <- layer.dropped_batches + 1;
    Rejected "quarantined"
  end
  else begin
    let verdicts =
      List.map (fun v -> ("range", Monitor.range_check s.range_mon v)) values
      @ [ ("size", Monitor.size_check s.size_mon bytes);
          ("timing", Monitor.timing_check s.timing_mon latency_s) ]
    in
    let fired =
      List.filter_map
        (fun (m, v) ->
          match v with
          | Monitor.Anomalous reason -> Some (Monitor.classify_event m reason)
          | Monitor.Normal -> None)
        verdicts
    in
    List.iter
      (fun e ->
        layer.total_alerts <- layer.total_alerts + 1;
        s.alerts <- e :: s.alerts;
        apply_actions layer s (Monitor.policy e))
      fired;
    if s.quarantined then begin
      layer.dropped_batches <- layer.dropped_batches + 1;
      Rejected "quarantined by this batch"
    end
    else Accepted
  end

(* Extra cost the protection layer imposes on a transfer of [bytes] when
   encryption was forced on the stream. *)
let transfer_overhead_s (s : stream_state) ~bytes ~accelerated ~clock_hz =
  if s.force_encryption then
    Cipher.encryption_time_s ~bytes ~accelerated ~clock_hz
  else 0.0
