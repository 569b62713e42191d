(* Trailing-window quantile sketches.

   A ring of [slots] Metrics histograms, one per [bucket_s] of time.
   Observing at time [t] lands in slot [floor(t/bucket_s) mod slots]; a
   slot whose stored epoch differs from the current one is stale and is
   reset before reuse, so the ring always covers the trailing
   [slots * bucket_s] seconds exactly.  Histograms merge bucket-wise —
   associative and commutative — so a query answers "p99 over the last W
   seconds" by merging the slots inside the window instead of rescanning
   samples: O(buckets), not O(samples).  Time only moves forward: a
   sample older than the newest would land in a slot the ring has already
   reused. *)

module Metrics = Everest_telemetry.Metrics

type t = {
  bucket_s : float;
  slots : Metrics.histogram array;
  epoch : int array;  (* floor(t/bucket_s) the slot holds; -1 empty *)
  mutable last_t : float;  (* newest sample time *)
}

let create ?(bucket_s = 0.05) ?(slots = 20) () =
  if bucket_s <= 0.0 then invalid_arg "Sketch.create: bucket_s <= 0";
  if slots <= 0 then invalid_arg "Sketch.create: slots <= 0";
  { bucket_s;
    slots = Array.init slots (fun _ -> Metrics.make_histogram ());
    epoch = Array.make slots (-1);
    last_t = neg_infinity }

let span_s w = w.bucket_s *. float_of_int (Array.length w.slots)
let epoch_of w t = int_of_float (Float.floor (t /. w.bucket_s))

let observe w ~now v =
  if now < w.last_t then
    invalid_arg
      (Printf.sprintf "Sketch.observe: now %.17g precedes the newest sample %.17g"
         now w.last_t);
  w.last_t <- now;
  let epoch = max 0 (epoch_of w now) in
  let slot = epoch mod Array.length w.slots in
  if w.epoch.(slot) <> epoch then begin
    Metrics.hist_reset w.slots.(slot);
    w.epoch.(slot) <- epoch
  end;
  Metrics.observe w.slots.(slot) v

let query w ~now ~window_s =
  let into = Metrics.make_histogram () in
  let n = Array.length w.slots in
  let hi = epoch_of w now in
  let lo = max (epoch_of w (Float.max 0.0 (now -. window_s))) (hi - n + 1) in
  for e = max 0 lo to hi do
    if w.epoch.(e mod n) = e then Metrics.hist_merge_into ~into w.slots.(e mod n)
  done;
  into
