(* Discrete-event simulation engine.

   Event-scheduling style: callbacks are queued at absolute times in a
   binary min-heap; FIFO resources model contention (CPU cores, FPGA role
   slots, link capacity).  All platform and runtime behaviour in EVEREST's
   simulated target system runs on top of this engine. *)

type event_state = Pending | Fired | Cancelled

type event = {
  at : float;
  seq : int;
  mutable erun : unit -> unit;
  mutable st : event_state;
}

type handle = event

(* Shared filler for empty heap slots: popped and shrunk slots are reset to
   it so the heap never retains dead closures. *)
let null_event = { at = 0.; seq = 0; erun = ignore; st = Fired }

type t = {
  mutable now : float;
  mutable heap : event array;
  mutable size : int;
  mutable cancelled_pending : int;  (* cancelled events still in the heap *)
  mutable next_seq : int;
  mutable executed : int;
}

let create () =
  { now = 0.0; heap = Array.make 256 null_event; size = 0;
    cancelled_pending = 0; next_seq = 0; executed = 0 }

let now sim = sim.now

(* Jump the clock forward without executing anything — recovery restores
   a simulation into a fresh engine at the snapshot's timestamp before
   re-inserting its pending events.  Forward-only: rewinding would break
   the monotonicity every scheduled callback relies on. *)
let warp sim t =
  if t < sim.now then invalid_arg "Desim.warp: cannot warp backwards";
  sim.now <- t

let lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let sift_up heap i0 =
  let i = ref i0 in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    lt heap.(!i) heap.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = heap.(p) in
    heap.(p) <- heap.(!i);
    heap.(!i) <- tmp;
    i := p
  done

let sift_down heap size i0 =
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < size && lt heap.(l) heap.(!smallest) then smallest := l;
    if r < size && lt heap.(r) heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = heap.(!smallest) in
      heap.(!smallest) <- heap.(!i);
      heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let push sim e =
  if sim.size = Array.length sim.heap then begin
    let bigger = Array.make (2 * sim.size) null_event in
    Array.blit sim.heap 0 bigger 0 sim.size;
    sim.heap <- bigger
  end;
  sim.heap.(sim.size) <- e;
  sim.size <- sim.size + 1;
  sift_up sim.heap (sim.size - 1)

let pop sim =
  if sim.size = 0 then None
  else begin
    let top = sim.heap.(0) in
    sim.size <- sim.size - 1;
    sim.heap.(0) <- sim.heap.(sim.size);
    sim.heap.(sim.size) <- null_event;
    sift_down sim.heap sim.size 0;
    (* a long-lived engine shrinks back after bursts instead of pinning its
       high-water mark forever *)
    let cap = Array.length sim.heap in
    if cap > 256 && sim.size < cap / 4 then begin
      let smaller = Array.make (cap / 2) null_event in
      Array.blit sim.heap 0 smaller 0 sim.size;
      sim.heap <- smaller
    end;
    Some top
  end

(* Rebuild the heap without its cancelled events (Floyd heapify, O(n)) —
   triggered when the dead outnumber the living, so 10⁶-task runs that arm
   and cancel rescue timers don't retain O(n) stale entries. *)
let compact sim =
  let live = Array.make (max 256 sim.size) null_event in
  let k = ref 0 in
  for i = 0 to sim.size - 1 do
    let e = sim.heap.(i) in
    if e.st <> Cancelled then begin
      live.(!k) <- e;
      incr k
    end
  done;
  sim.heap <- live;
  sim.size <- !k;
  sim.cancelled_pending <- 0;
  for i = (!k / 2) - 1 downto 0 do
    sift_down sim.heap sim.size i
  done

let schedule_cancellable sim delay f =
  if delay < 0.0 then invalid_arg "schedule: negative delay";
  let e = { at = sim.now +. delay; seq = sim.next_seq; erun = f; st = Pending } in
  sim.next_seq <- sim.next_seq + 1;
  push sim e;
  e

let schedule sim delay f = ignore (schedule_cancellable sim delay f)

let cancel sim h =
  if h.st = Pending then begin
    h.st <- Cancelled;
    h.erun <- ignore;  (* free the closure now, not when the slot drains *)
    sim.cancelled_pending <- sim.cancelled_pending + 1;
    if sim.cancelled_pending > 64 && 2 * sim.cancelled_pending > sim.size then
      compact sim
  end

let at sim time f =
  if time < sim.now then invalid_arg "at: time in the past";
  push sim { at = time; seq = sim.next_seq; erun = f; st = Pending };
  sim.next_seq <- sim.next_seq + 1

let run sim =
  let continue = ref true in
  while !continue do
    match pop sim with
    | None -> continue := false
    | Some e ->
        if e.st = Cancelled then
          (* skip without advancing the clock: a cancelled event has no
             observable behaviour left *)
          sim.cancelled_pending <- sim.cancelled_pending - 1
        else begin
          sim.now <- e.at;
          e.st <- Fired;
          sim.executed <- sim.executed + 1;
          e.erun ()
        end
  done

let executed sim = sim.executed
let pending sim = sim.size - sim.cancelled_pending

(* ---- FIFO resource ------------------------------------------------------------- *)

type resource = {
  rname : string;
  capacity : int;
  mutable in_use : int;
  waiting : (float * (unit -> unit)) Queue.t;  (* enqueue time, continuation *)
  mutable peak : int;
  mutable total_wait_starts : int;
  mutable total_wait_s : float;  (* summed queue time of granted waiters *)
}

let resource name capacity =
  if capacity <= 0 then invalid_arg "resource: capacity must be positive";
  { rname = name; capacity; in_use = 0; waiting = Queue.create (); peak = 0;
    total_wait_starts = 0; total_wait_s = 0.0 }

(* [acquire sim r k] runs [k] as soon as a unit of [r] is free. *)
let acquire sim r k =
  if r.in_use < r.capacity then begin
    r.in_use <- r.in_use + 1;
    r.peak <- max r.peak r.in_use;
    k ()
  end
  else begin
    r.total_wait_starts <- r.total_wait_starts + 1;
    Queue.push (sim.now, k) r.waiting
  end

let release sim r =
  if r.in_use <= 0 then invalid_arg (r.rname ^ ": release without acquire");
  if Queue.is_empty r.waiting then r.in_use <- r.in_use - 1
  else begin
    let queued_at, k = Queue.pop r.waiting in
    r.total_wait_s <- r.total_wait_s +. (sim.now -. queued_at);
    (* hand the unit directly to the next waiter *)
    k ()
  end

let in_use r = r.in_use
let queue_length r = Queue.length r.waiting

(* ---- contention statistics ------------------------------------------------------ *)

(* Observability accessors: consumers read these, not the mutable fields, so
   the accounting representation stays free to change. *)

let total_wait_s r = r.total_wait_s

let mean_wait_s r =
  (* waiters still queued have not accrued a grant time yet; average over
     the granted ones *)
  let granted = r.total_wait_starts - Queue.length r.waiting in
  if granted <= 0 then 0.0 else r.total_wait_s /. float_of_int granted

(* Publish the engine and resource state into telemetry gauges of
   [registry] — the monitoring feed of the self-adaptive loop.  Gauges
   only, so publishing again without progress leaves the registry as it
   was. *)
let publish_resource ?registry r =
  let module M = Everest_telemetry.Metrics in
  let labels = [ ("resource", r.rname) ] in
  M.set (M.gauge ?registry ~labels "desim_resource_peak")
    (float_of_int r.peak);
  M.set (M.gauge ?registry ~labels "desim_resource_waits")
    (float_of_int r.total_wait_starts);
  M.set (M.gauge ?registry ~labels "desim_resource_mean_wait_s")
    (mean_wait_s r)

let publish ?registry sim =
  let module M = Everest_telemetry.Metrics in
  M.set (M.gauge ?registry "desim_events_executed") (float_of_int sim.executed);
  M.set (M.gauge ?registry "desim_events_pending") (float_of_int (pending sim));
  M.set (M.gauge ?registry "desim_now_s") sim.now
